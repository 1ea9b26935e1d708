package harness

import (
	"fmt"
	"strings"

	"lintime/internal/adt"
	"lintime/internal/bounds"
	"lintime/internal/classify"
	"lintime/internal/sim"
	"lintime/internal/simtime"
)

// MeasuredTable is one of the paper's tables with its measured columns
// filled.
type MeasuredTable = bounds.Table

// MeasureTableParallel regenerates one of the paper's Tables 1-5 with
// measured worst-case latencies from a deterministic workload battery:
// Algorithm 1 and the centralized baseline run the same closed-loop
// workload on the table's first data type under the worst-case network
// (uniform delay d), fanned across at most parallel workers. The master
// seed is split into independent sub-seeds for the workload stream and the
// network/offset configuration stream (they must not alias — a coupled
// stream correlates operation gaps with message delays), so the output is
// deterministic and identical for every parallelism level.
func MeasureTableParallel(number int, p simtime.Params, seed int64, parallel int) (*MeasuredTable, error) {
	t, err := bounds.Evaluate(number, p)
	if err != nil {
		return nil, err
	}
	typeName := t.Types[0]
	wl := Workload{OpsPerProc: 12, MaxGap: p.D / 2, Seed: DeriveSeed(seed, "table/workload")}
	cfgSeed := DeriveSeed(seed, "table/config")

	results, err := RunJobs([]Job{
		{Config: Config{Params: p, TypeName: typeName, Algorithm: AlgCore,
			Network: NetUniform, Offsets: OffZero, Seed: cfgSeed, Trace: sim.TraceOps}, Workload: wl},
		{Config: Config{Params: p, TypeName: typeName, Algorithm: AlgCentral,
			Network: NetUniform, Offsets: OffZero, Seed: cfgSeed, Trace: sim.TraceOps}, Workload: wl},
	}, parallel)
	if err != nil {
		return nil, err
	}
	coreRes, baseRes := results[0], results[1]
	if !coreRes.Converged() {
		return nil, fmt.Errorf("harness: core replicas diverged measuring table %d", number)
	}

	dt, _ := adt.Lookup(typeName)
	classes := ClassesFor(dt)
	// maxOf sums the worst cases of ops (a sum row has two); -1 if the run
	// never completed one of them.
	maxOf := func(res *Result, ops []string) simtime.Duration {
		var sum simtime.Duration
		for _, op := range ops {
			st, ok := res.Stats[op]
			if !ok {
				return -1
			}
			sum += st.Max
		}
		return sum
	}
	for i := range t.Rows {
		ops := strings.Split(t.Rows[i].Op, "+")
		m := &bounds.Measured{Max: maxOf(coreRes, ops), Baseline: maxOf(baseRes, ops)}
		m.AtX = bounds.UpperFromClass(p, classes[ops[0]])
		if len(ops) == 2 {
			m.AtX = bounds.Bound{Expr: "sum", Value: m.AtX.Value + bounds.UpperFromClass(p, classes[ops[1]]).Value,
				Source: "Alg 1 (corrected)"}
		}
		t.Rows[i].Measured = m
	}
	return &t, nil
}

// MeasureAllTablesParallel regenerates Tables 1-5 with the per-table
// simulator runs fanned across at most parallel workers. Output is
// bit-identical at every parallelism level.
func MeasureAllTablesParallel(p simtime.Params, seed int64, parallel int) ([]*MeasuredTable, error) {
	out := make([]*MeasuredTable, 5)
	err := RunIndexed(5, parallel, func(i int) error {
		t, err := MeasureTableParallel(i+1, p, seed, parallel)
		if err != nil {
			return err
		}
		out[i] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// OptimalRow is one operation measured at its per-class optimal X — the
// quantity the paper's tables quote (pure mutators at X=0 cost ε; the
// paper's pure accessors at X=d-ε cost ε, ours 2ε).
type OptimalRow struct {
	Operation string
	Class     classify.Class
	// BestX is the X minimizing the class formula.
	BestX simtime.Duration
	// Measured is the worst-case latency observed at BestX.
	Measured simtime.Duration
	// Formula is the class bound at BestX.
	Formula bounds.Bound
}

// MeasureOptimalParallel measures every operation of a data type at its
// per-class optimal X: the whole workload battery runs once at X=0
// (optimal for pure mutators and mixed ops) and once at X=d-ε (optimal
// for pure accessors), the two runs fanned across workers, and each
// operation reports the run matching its class.
func MeasureOptimalParallel(typeName string, p simtime.Params, seed int64, parallel int) ([]OptimalRow, error) {
	dt, err := adt.Lookup(typeName)
	if err != nil {
		return nil, err
	}
	classes := ClassesFor(dt)
	wl := Workload{OpsPerProc: 12, MaxGap: p.D / 2, Seed: DeriveSeed(seed, "optimal/workload")}
	cfgSeed := DeriveSeed(seed, "optimal/config")

	configAt := func(x simtime.Duration) Config {
		q := p
		q.X = x
		return Config{Params: q, TypeName: typeName, Algorithm: AlgCore,
			Network: NetUniform, Offsets: OffZero, Seed: cfgSeed, Trace: sim.TraceOps}
	}
	results, err := RunJobs([]Job{
		{Config: configAt(0), Workload: wl},
		{Config: configAt(p.D - p.Epsilon), Workload: wl},
	}, parallel)
	if err != nil {
		return nil, err
	}
	atZero, atMax := results[0], results[1]

	var rows []OptimalRow
	for _, op := range dt.Ops() {
		class := classes[op.Name]
		row := OptimalRow{Operation: op.Name, Class: class}
		var res *Result
		q := p
		if class == classify.PureAccessor {
			row.BestX = p.D - p.Epsilon
			res = atMax
		} else {
			row.BestX = 0
			res = atZero
		}
		q.X = row.BestX
		row.Formula = bounds.UpperFromClass(q, class)
		if st, ok := res.Stats[op.Name]; ok {
			row.Measured = st.Max
		} else {
			row.Measured = -1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatOptimal renders the optimal-X measurement.
func FormatOptimal(typeName string, rows []OptimalRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "per-operation optimal X on %s:\n", typeName)
	fmt.Fprintf(&b, "  %-12s %-6s %-10s %-24s %-10s\n", "operation", "class", "best X", "formula", "measured")
	for _, r := range rows {
		measured := "—"
		if r.Measured >= 0 {
			measured = r.Measured.String()
		}
		fmt.Fprintf(&b, "  %-12s %-6s %-10v %-24s %-10s\n",
			r.Operation, r.Class, r.BestX, r.Formula, measured)
	}
	return b.String()
}

// SweepPoint is one X value of the accessor/mutator tradeoff sweep.
type SweepPoint struct {
	X simtime.Duration
	// Measured worst-case latencies per class.
	AOPMax, MOPMax, OOPMax simtime.Duration
	// The corrected formulas at this X.
	AOPBound, MOPBound, OOPBound simtime.Duration
}

// SweepXParallel measures the X tradeoff (§5.1.2): for points+1 values of
// X across [0, d-ε], run the workload and record worst-case latencies per
// operation class alongside the formulas d-X+ε, X+ε, d+ε. The per-X
// simulator runs fan out across at most parallel workers; each sweep
// point draws its workload and config streams from sub-seeds derived from
// (seed, point index), so the curve is deterministic and identical at
// every parallelism level.
func SweepXParallel(p simtime.Params, typeName string, points int, seed int64, parallel int) ([]SweepPoint, error) {
	if points < 1 {
		return nil, fmt.Errorf("harness: need at least 1 sweep interval")
	}
	dt, err := adt.Lookup(typeName)
	if err != nil {
		return nil, err
	}
	classes := ClassesFor(dt)
	out := make([]SweepPoint, points+1)
	span := p.D - p.Epsilon
	err = RunIndexed(points+1, parallel, func(i int) error {
		q := p
		q.X = span * simtime.Duration(i) / simtime.Duration(points)
		runID := fmt.Sprintf("sweep/%d", i)
		res, err := Run(Config{Params: q, TypeName: typeName, Algorithm: AlgCore,
			Network: NetUniform, Offsets: OffZero, Seed: DeriveSeed(seed, runID+"/config"),
			Trace: sim.TraceOps},
			Workload{OpsPerProc: 10, MaxGap: q.D / 2, Seed: DeriveSeed(seed, runID+"/workload")})
		if err != nil {
			return err
		}
		pt := SweepPoint{
			X:        q.X,
			AOPBound: q.D - q.X + q.Epsilon,
			MOPBound: q.X + q.Epsilon,
			OOPBound: q.D + q.Epsilon,
		}
		for op, st := range res.Stats {
			switch classes[op] {
			case classify.PureAccessor:
				pt.AOPMax = simtime.Max(pt.AOPMax, st.Max)
			case classify.PureMutator:
				pt.MOPMax = simtime.Max(pt.MOPMax, st.Max)
			default:
				pt.OOPMax = simtime.Max(pt.OOPMax, st.Max)
			}
		}
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatSweep renders a sweep as an aligned series table.
func FormatSweep(points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-10s | %-10s %-10s | %-10s %-10s | %-10s %-10s\n",
		"X", "AOP max", "d-X+ε", "MOP max", "X+ε", "OOP max", "d+ε")
	fmt.Fprintf(&b, "  %s\n", strings.Repeat("-", 80))
	for _, pt := range points {
		fmt.Fprintf(&b, "  %-10v | %-10v %-10v | %-10v %-10v | %-10v %-10v\n",
			pt.X, pt.AOPMax, pt.AOPBound, pt.MOPMax, pt.MOPBound, pt.OOPMax, pt.OOPBound)
	}
	return b.String()
}
