package harness

import (
	"strings"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/simtime"
)

func hp() simtime.Params { return simtime.DefaultParams(4) }

func TestRunAllAlgorithms(t *testing.T) {
	p := hp()
	for _, alg := range Algorithms() {
		t.Run(alg, func(t *testing.T) {
			typeName := "queue"
			if alg == AlgQuorum {
				typeName = "register" // the quorum backend serves only the register
			}
			res, err := Run(Config{Params: p, TypeName: typeName, Algorithm: alg,
				Network: NetRandom, Offsets: OffSpread, Seed: 3},
				Workload{OpsPerProc: 5, MaxGap: 50, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, st := range res.Stats {
				total += st.Count
			}
			if total != 4*5 {
				t.Errorf("ran %d ops, want 20", total)
			}
			if !res.Converged() {
				t.Error("replicas diverged")
			}
			if !res.CheckLinearizable() {
				t.Error("run not linearizable")
			}
		})
	}
}

func TestRunUnknownInputs(t *testing.T) {
	p := hp()
	wl := Workload{OpsPerProc: 1, Seed: 1}
	if _, err := Run(Config{Params: p, TypeName: "nope", Algorithm: AlgCore}, wl); err == nil {
		t.Error("unknown type should error")
	}
	if _, err := Run(Config{Params: p, TypeName: "queue", Algorithm: "nope"}, wl); err == nil {
		t.Error("unknown algorithm should error")
	}
	if _, err := Run(Config{Params: p, TypeName: "queue", Algorithm: AlgCore, Network: "nope"}, wl); err == nil {
		t.Error("unknown network should error")
	}
	if _, err := Run(Config{Params: p, TypeName: "queue", Algorithm: AlgCore, Offsets: "nope"}, wl); err == nil {
		t.Error("unknown offsets should error")
	}
}

func TestWorkloadMix(t *testing.T) {
	p := hp()
	res, err := Run(Config{Params: p, TypeName: "queue", Algorithm: AlgCore, Seed: 9},
		Workload{OpsPerProc: 10, Seed: 9, Mix: []OpPick{{Op: adt.OpEnqueue, Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 1 || res.Stats[adt.OpEnqueue] == nil {
		t.Errorf("mix should restrict to enqueue, got %v", res.OpNames())
	}
}

func TestWorkloadMixValidation(t *testing.T) {
	p := hp()
	if _, err := Run(Config{Params: p, TypeName: "queue", Algorithm: AlgCore},
		Workload{OpsPerProc: 1, Mix: []OpPick{{Op: "nope", Weight: 1}}}); err == nil {
		t.Error("unknown mix op should error")
	}
	if _, err := Run(Config{Params: p, TypeName: "queue", Algorithm: AlgCore},
		Workload{OpsPerProc: 1, Mix: []OpPick{{Op: adt.OpPeek, Weight: 0}}}); err == nil {
		t.Error("zero weight should error")
	}
}

func TestRunDeterministic(t *testing.T) {
	p := hp()
	cfg := Config{Params: p, TypeName: "stack", Algorithm: AlgCore, Network: NetRandom,
		Offsets: OffRandom, Seed: 5}
	wl := Workload{OpsPerProc: 6, MaxGap: 30, Seed: 6}
	a, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trace.Ops) != len(b.Trace.Ops) {
		t.Fatal("run sizes differ")
	}
	for i := range a.Trace.Ops {
		if a.Trace.Ops[i] != b.Trace.Ops[i] {
			t.Errorf("op %d differs between identical runs", i)
		}
	}
}

func TestCoreLatenciesMatchFormulas(t *testing.T) {
	// Under uniform delay d and zero skew, the measured worst cases equal
	// the (corrected) Lemma 4 values exactly.
	p := hp()
	res, err := Run(Config{Params: p, TypeName: "queue", Algorithm: AlgCore,
		Network: NetUniform, Offsets: OffZero, Seed: 7},
		Workload{OpsPerProc: 10, MaxGap: p.D, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]simtime.Duration{
		adt.OpPeek:    p.D - p.X + p.Epsilon,
		adt.OpEnqueue: p.X + p.Epsilon,
		adt.OpDequeue: p.D + p.Epsilon,
	}
	for op, w := range want {
		st := res.Stats[op]
		if st == nil {
			t.Fatalf("no %s in workload", op)
		}
		if st.Max != w {
			t.Errorf("%s max = %v, want %v", op, st.Max, w)
		}
		if st.Min != w {
			t.Errorf("%s min = %v, want %v (timer-driven latency is exact)", op, st.Min, w)
		}
	}
}

func TestBaselineSlowerThanCore(t *testing.T) {
	// The headline claim: Algorithm 1 beats the 2d folklore baselines on
	// every operation class that it accelerates.
	p := hp()
	wl := Workload{OpsPerProc: 8, MaxGap: 40, Seed: 11}
	coreRes, err := Run(Config{Params: p, TypeName: "queue", Algorithm: AlgCore,
		Network: NetUniform, Offsets: OffZero, Seed: 11}, wl)
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := Run(Config{Params: p, TypeName: "queue", Algorithm: AlgCentral,
		Network: NetUniform, Offsets: OffZero, Seed: 11}, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{adt.OpEnqueue, adt.OpPeek, adt.OpDequeue} {
		c, b := coreRes.Stats[op], baseRes.Stats[op]
		if c == nil || b == nil {
			t.Fatalf("missing op %s", op)
		}
		if c.Max >= b.Max {
			t.Errorf("%s: core max %v not below baseline max %v", op, c.Max, b.Max)
		}
	}
}

func TestAllOOPAblation(t *testing.T) {
	// Disabling classification costs latency: every op becomes d+ε.
	p := hp()
	res, err := Run(Config{Params: p, TypeName: "queue", Algorithm: AlgCoreAllOOP,
		Network: NetUniform, Offsets: OffZero, Seed: 13},
		Workload{OpsPerProc: 6, MaxGap: 40, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for op, st := range res.Stats {
		if st.Max != p.D+p.Epsilon {
			t.Errorf("all-OOP %s max = %v, want %v", op, st.Max, p.D+p.Epsilon)
		}
	}
	if !res.CheckLinearizable() {
		t.Error("all-OOP ablation must stay linearizable")
	}
}

func TestLatencyStats(t *testing.T) {
	s := &LatencyStats{}
	s.add(10)
	s.add(30)
	s.add(20)
	if s.Count != 3 || s.Min != 10 || s.Max != 30 || s.Mean() != 20 {
		t.Errorf("stats wrong: %+v mean %v", s, s.Mean())
	}
	empty := &LatencyStats{}
	if empty.Mean() != 0 {
		t.Error("empty mean should be 0")
	}
}

func TestMeasureTableAll(t *testing.T) {
	p := hp()
	tables, err := MeasureAllTablesParallel(p, 21, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 5 {
		t.Fatalf("got %d tables", len(tables))
	}
	for _, tab := range tables {
		if tab.String() == "" {
			t.Errorf("table %d renders empty", tab.Number)
		}
		for _, row := range tab.Rows {
			if row.Measured.Max < 0 {
				continue // sum rows of unmeasured ops
			}
			if !row.Measured.AtX.Defined() {
				t.Errorf("table %d row %s has measurement but no expectation", tab.Number, row.Operation)
				continue
			}
			if row.Measured.Max != row.Measured.AtX.Value {
				t.Errorf("table %d row %s: measured %v != expected %v",
					tab.Number, row.Operation, row.Measured.Max, row.Measured.AtX.Value)
			}
			if row.Measured.Baseline >= 0 && !strings.Contains(row.Operation, "+") {
				if row.Measured.Baseline > 2*p.D {
					t.Errorf("table %d row %s: baseline %v exceeds 2d", tab.Number, row.Operation, row.Measured.Baseline)
				}
			}
		}
	}
}

func TestMeasureTableUnknownNumber(t *testing.T) {
	if _, err := MeasureTableParallel(9, hp(), 1, 1); err == nil {
		t.Error("table 9 should error")
	}
}

func TestMeasureOptimal(t *testing.T) {
	// The paper's table entries at per-row optimal X: pure mutators cost
	// exactly ε (X=0), pure accessors exactly 2ε (corrected; X=d-ε),
	// mixed ops d+ε regardless.
	p := hp()
	rows, err := MeasureOptimalParallel("queue", p, 51, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]simtime.Duration{
		adt.OpEnqueue: p.Epsilon,
		adt.OpPeek:    2 * p.Epsilon,
		adt.OpDequeue: p.D + p.Epsilon,
	}
	for _, r := range rows {
		if r.Measured < 0 {
			t.Errorf("%s unmeasured", r.Operation)
			continue
		}
		if r.Measured != want[r.Operation] {
			t.Errorf("%s at optimal X: measured %v, want %v", r.Operation, r.Measured, want[r.Operation])
		}
		if r.Measured != r.Formula.Value {
			t.Errorf("%s: measured %v != formula %v", r.Operation, r.Measured, r.Formula.Value)
		}
	}
	if FormatOptimal("queue", rows) == "" {
		t.Error("empty rendering")
	}
}

func TestMeasureOptimalUnknownType(t *testing.T) {
	if _, err := MeasureOptimalParallel("nope", hp(), 1, 1); err == nil {
		t.Error("unknown type should error")
	}
}

func TestSweepX(t *testing.T) {
	p := hp()
	points, err := SweepXParallel(p, "queue", 4, 31, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("got %d points, want 5", len(points))
	}
	if points[0].X != 0 || points[4].X != p.D-p.Epsilon {
		t.Errorf("sweep endpoints wrong: %v .. %v", points[0].X, points[4].X)
	}
	for _, pt := range points {
		if pt.AOPMax != pt.AOPBound {
			t.Errorf("X=%v: AOP measured %v != bound %v", pt.X, pt.AOPMax, pt.AOPBound)
		}
		if pt.MOPMax != pt.MOPBound {
			t.Errorf("X=%v: MOP measured %v != bound %v", pt.X, pt.MOPMax, pt.MOPBound)
		}
		if pt.OOPMax != pt.OOPBound {
			t.Errorf("X=%v: OOP measured %v != bound %v", pt.X, pt.OOPMax, pt.OOPBound)
		}
	}
	// The tradeoff: accessors get monotonically faster with X, mutators
	// slower.
	for i := 1; i < len(points); i++ {
		if points[i].AOPMax >= points[i-1].AOPMax {
			t.Error("AOP latency should fall as X grows")
		}
		if points[i].MOPMax <= points[i-1].MOPMax {
			t.Error("MOP latency should rise as X grows")
		}
	}
	if FormatSweep(points) == "" {
		t.Error("sweep renders empty")
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := SweepXParallel(hp(), "queue", 0, 1, 1); err == nil {
		t.Error("zero intervals should error")
	}
	if _, err := SweepXParallel(hp(), "nope", 2, 1, 1); err == nil {
		t.Error("unknown type should error")
	}
}

func TestMessageOverhead(t *testing.T) {
	// Communication cost per algorithm: Algorithm 1 pays n-1 messages per
	// mutator and zero per pure accessor; the centralized baseline pays
	// 2 per remote op; the sequencer up to n per remote op.
	p := hp() // n = 4
	mutOnly := Workload{OpsPerProc: 5, Seed: 3, Mix: []OpPick{{Op: adt.OpEnqueue, Weight: 1}}}
	accOnly := Workload{OpsPerProc: 5, Seed: 3, Mix: []OpPick{{Op: adt.OpPeek, Weight: 1}}}

	res, err := Run(Config{Params: p, TypeName: "queue", Algorithm: AlgCore, Seed: 3}, mutOnly)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MessagesPerOp(); got != float64(p.N-1) {
		t.Errorf("core mutator messages/op = %v, want %d", got, p.N-1)
	}
	res, err = Run(Config{Params: p, TypeName: "queue", Algorithm: AlgCore, Seed: 3}, accOnly)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MessageCount(); got != 0 {
		t.Errorf("core accessors sent %d messages, want 0", got)
	}
	res, err = Run(Config{Params: p, TypeName: "queue", Algorithm: AlgCentral, Seed: 3}, accOnly)
	if err != nil {
		t.Fatal(err)
	}
	// 3 of 4 processes are remote (2 msgs/op); the server is free.
	if got, want := res.MessagesPerOp(), 2.0*3/4; got != want {
		t.Errorf("central messages/op = %v, want %v", got, want)
	}
}

func TestResultString(t *testing.T) {
	p := hp()
	res, err := Run(Config{Params: p, TypeName: "counter", Algorithm: AlgCore, Seed: 41},
		Workload{OpsPerProc: 3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if res.String() == "" {
		t.Error("empty result string")
	}
}
