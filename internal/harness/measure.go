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

// MeasuredRow extends a bounds table row with measured worst-case
// latencies: Algorithm 1 (corrected timers) at the configured X, and the
// centralized folklore baseline.
type MeasuredRow struct {
	bounds.Row
	// ExpectedAtX is the class upper bound at the configured X (the
	// quantity the measurement must match exactly).
	ExpectedAtX bounds.Bound
	// MeasuredMax is Algorithm 1's observed worst-case latency.
	MeasuredMax simtime.Duration
	// BaselineMax is the centralized baseline's observed worst-case.
	BaselineMax simtime.Duration
}

// MeasuredTable is one of the paper's tables with measured columns.
type MeasuredTable struct {
	Number   int
	Title    string
	Params   simtime.Params
	TypeName string
	Rows     []MeasuredRow
}

// String renders the measured table.
func (t *MeasuredTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table %d (measured): %s  [type=%s n=%d d=%v u=%v ε=%v X=%v]\n",
		t.Number, t.Title, t.TypeName, t.Params.N, t.Params.D, t.Params.U, t.Params.Epsilon, t.Params.X)
	fmt.Fprintf(&b, "  %-14s | %-20s | %-28s | %-20s | %-10s | %-10s\n",
		"operation", "previous lower", "new lower", "upper @X", "measured", "baseline")
	fmt.Fprintf(&b, "  %s\n", strings.Repeat("-", 118))
	for _, r := range t.Rows {
		measured := "—"
		if r.MeasuredMax >= 0 {
			measured = r.MeasuredMax.String()
		}
		baseline := "—"
		if r.BaselineMax >= 0 {
			baseline = r.BaselineMax.String()
		}
		fmt.Fprintf(&b, "  %-14s | %-20s | %-28s | %-20s | %-10s | %-10s\n",
			r.Operation, r.PrevLower, r.NewLower, r.ExpectedAtX, measured, baseline)
		if r.Note != "" {
			fmt.Fprintf(&b, "  %-14s   note: %s\n", "", r.Note)
		}
	}
	return b.String()
}

// tableType maps table numbers to the data type they measure.
func tableType(number int) (string, error) {
	switch number {
	case 1:
		return "rmwregister", nil
	case 2, 5:
		return "queue", nil
	case 3:
		return "stack", nil
	case 4:
		return "tree", nil
	default:
		return "", fmt.Errorf("harness: no table %d (have 1-5)", number)
	}
}

// classRepresentatives maps Table 5's class rows to queue operations.
var classRepresentatives = map[string]string{
	"pure accessor":  adt.OpPeek,
	"last-sens. MOP": adt.OpEnqueue,
	"pair-free op":   adt.OpDequeue,
	"MOP+AOP sum":    adt.OpEnqueue + "+" + adt.OpPeek,
	"any op":         adt.OpDequeue,
}

// MeasureTableParallel regenerates one of the paper's Tables 1-5 with
// measured worst-case latencies from a deterministic workload battery:
// Algorithm 1 and the centralized baseline run the same closed-loop
// workload on the table's data type under the worst-case network (uniform
// delay d), fanned across at most parallel workers. The master seed is
// split into independent sub-seeds for the workload stream and the
// network/offset configuration stream (they must not alias — a coupled
// stream correlates operation gaps with message delays), so the output is
// deterministic and identical for every parallelism level.
func MeasureTableParallel(number int, p simtime.Params, seed int64, parallel int) (*MeasuredTable, error) {
	typeName, err := tableType(number)
	if err != nil {
		return nil, err
	}
	static := bounds.AllTables(p)[number-1]
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
	maxOf := func(res *Result, op string) simtime.Duration {
		if st, ok := res.Stats[op]; ok {
			return st.Max
		}
		return -1
	}
	out := &MeasuredTable{Number: number, Title: static.Title, Params: p, TypeName: typeName}
	for _, row := range static.Rows {
		mr := MeasuredRow{Row: row, MeasuredMax: -1, BaselineMax: -1}
		opName := row.Operation
		if number == 5 {
			opName = classRepresentatives[row.Operation]
		}
		if parts := strings.Split(opName, "+"); len(parts) == 2 {
			// Sum rows: add the component worst cases.
			a, b := maxOf(coreRes, parts[0]), maxOf(coreRes, parts[1])
			ba, bb := maxOf(baseRes, parts[0]), maxOf(baseRes, parts[1])
			if a >= 0 && b >= 0 {
				mr.MeasuredMax = a + b
			}
			if ba >= 0 && bb >= 0 {
				mr.BaselineMax = ba + bb
			}
			ca, cb := classes[parts[0]], classes[parts[1]]
			mr.ExpectedAtX = bounds.Bound{
				Expr: "sum",
				Value: bounds.UpperFromClass(p, ca).Value +
					bounds.UpperFromClass(p, cb).Value,
				Source: "Alg 1 (corrected)",
			}
		} else if opName != "" {
			mr.MeasuredMax = maxOf(coreRes, opName)
			mr.BaselineMax = maxOf(baseRes, opName)
			mr.ExpectedAtX = bounds.UpperFromClass(p, classes[opName])
		}
		out.Rows = append(out.Rows, mr)
	}
	return out, nil
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
