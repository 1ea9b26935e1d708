package lintime

// The benchmark harness regenerates every table of the paper's evaluation
// and the executable versions of its theorems. Each benchmark validates
// the reproduced result (measured latency == formula; violation found
// below a bound and absent at it) and reports the key quantities as
// custom metrics in virtual ticks, so `go test -bench . -benchmem` both
// times and re-checks the reproduction.

import (
	"fmt"
	"runtime"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/bounds"
	"lintime/internal/classify"
	"lintime/internal/clocksync"
	"lintime/internal/harness"
	"lintime/internal/lincheck"
	"lintime/internal/lowerbound"
	"lintime/internal/sim"
	"lintime/internal/simtime"
)

func benchParams() simtime.Params { return simtime.DefaultParams(5) }

// benchTable regenerates one paper table and validates that Algorithm 1's
// measured worst-case latencies match the corrected formulas exactly and
// that the baseline never beats 2d... more precisely, never exceeds it.
func benchTable(b *testing.B, number int) {
	p := benchParams()
	var mt *harness.MeasuredTable
	var err error
	for i := 0; i < b.N; i++ {
		mt, err = harness.MeasureTableParallel(number, p, 17, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range mt.Rows {
		if row.Measured.Max >= 0 && row.Measured.AtX.Defined() && row.Measured.Max != row.Measured.AtX.Value {
			b.Fatalf("table %d row %s: measured %v != expected %v",
				number, row.Operation, row.Measured.Max, row.Measured.AtX.Value)
		}
		if row.Measured.Baseline > 2*2*p.D { // sums of two ops: ≤ 2·2d
			b.Fatalf("table %d row %s: baseline %v exceeds twice 2d", number, row.Operation, row.Measured.Baseline)
		}
		if row.Measured.Max >= 0 {
			b.ReportMetric(float64(row.Measured.Max), "vticks_"+metricName(row.Operation))
		}
	}
}

func metricName(op string) string {
	out := make([]rune, 0, len(op))
	for _, r := range op {
		if r == '+' {
			out = append(out, '_')
			continue
		}
		if r == ' ' || r == '.' || r == '-' {
			continue
		}
		out = append(out, r)
	}
	return string(out)
}

// BenchmarkTable1 regenerates Table 1 (RMW registers).
func BenchmarkTable1(b *testing.B) { benchTable(b, 1) }

// BenchmarkTable2 regenerates Table 2 (queues).
func BenchmarkTable2(b *testing.B) { benchTable(b, 2) }

// BenchmarkTable3 regenerates Table 3 (stacks).
func BenchmarkTable3(b *testing.B) { benchTable(b, 3) }

// BenchmarkTable4 regenerates Table 4 (rooted trees).
func BenchmarkTable4(b *testing.B) { benchTable(b, 4) }

// BenchmarkTable5 regenerates the class-level summary of Section 6.
func BenchmarkTable5(b *testing.B) { benchTable(b, 5) }

// BenchmarkTheorem2 runs the pure-accessor shifting construction one tick
// below u/4 (violation expected) and at u/4 (no violation).
func BenchmarkTheorem2(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		rep, err := lowerbound.Theorem2(p, "queue", "peek", p.U/4-1)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.ViolationFound {
			b.Fatal("Theorem 2: expected violation below the bound")
		}
		rep, err = lowerbound.Theorem2(p, "queue", "peek", p.U/4)
		if err != nil {
			b.Fatal(err)
		}
		if rep.ViolationFound {
			b.Fatal("Theorem 2: unexpected violation at the bound")
		}
	}
	b.ReportMetric(float64(p.U/4), "vticks_bound")
}

// BenchmarkTheorem3 runs the last-sensitive mutator construction for
// k = n.
func BenchmarkTheorem3(b *testing.B) {
	p := benchParams()
	bound := p.U - p.U/simtime.Duration(p.N)
	for i := 0; i < b.N; i++ {
		rep, err := lowerbound.Theorem3(p, "queue", p.N, bound-1)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.ViolationFound {
			b.Fatal("Theorem 3: expected violation below the bound")
		}
		rep, err = lowerbound.Theorem3(p, "queue", p.N, bound)
		if err != nil {
			b.Fatal(err)
		}
		if rep.ViolationFound {
			b.Fatal("Theorem 3: unexpected violation at the bound")
		}
	}
	b.ReportMetric(float64(bound), "vticks_bound")
}

// BenchmarkTheorem4 runs the pair-free shift-and-chop chain.
func BenchmarkTheorem4(b *testing.B) {
	p := benchParams()
	m := bounds.MinPairFree(p)
	for i := 0; i < b.N; i++ {
		rep, err := lowerbound.Theorem4(p, "queue", "dequeue", p.D+m-1)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.ViolationFound {
			b.Fatal("Theorem 4: expected violation below the bound")
		}
		rep, err = lowerbound.Theorem4(p, "queue", "dequeue", p.D+m)
		if err != nil {
			b.Fatal(err)
		}
		if rep.ViolationFound {
			b.Fatal("Theorem 4: unexpected violation at the bound")
		}
	}
	b.ReportMetric(float64(p.D+m), "vticks_bound")
}

// BenchmarkTheorem5 runs the discriminated mutator+accessor sum chain.
func BenchmarkTheorem5(b *testing.B) {
	p := benchParams()
	m := bounds.MinPairFree(p)
	for i := 0; i < b.N; i++ {
		rep, err := lowerbound.Theorem5(p, "queue", "enqueue", "peek", p.D-2*m, 3*m-1)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.ViolationFound {
			b.Fatal("Theorem 5: expected violation below the bound")
		}
		rep, err = lowerbound.Theorem5(p, "queue", "enqueue", "peek", p.D-2*m, 3*m)
		if err != nil {
			b.Fatal(err)
		}
		if rep.ViolationFound {
			b.Fatal("Theorem 5: unexpected violation at the bound")
		}
	}
	b.ReportMetric(float64(p.D+m), "vticks_bound")
}

// BenchmarkUpperBounds validates the (corrected) Lemma 4 latencies per
// operation class across a workload, per class metrics included.
func BenchmarkUpperBounds(b *testing.B) {
	p := benchParams()
	var res *harness.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = harness.Run(harness.Config{Params: p, TypeName: "queue",
			Algorithm: harness.AlgCore, Network: harness.NetUniform,
			Offsets: harness.OffZero, Seed: 23},
			harness.Workload{OpsPerProc: 12, MaxGap: p.D / 2, Seed: 23})
		if err != nil {
			b.Fatal(err)
		}
	}
	want := map[string]simtime.Duration{
		adt.OpPeek:    p.D - p.X + p.Epsilon,
		adt.OpEnqueue: p.X + p.Epsilon,
		adt.OpDequeue: p.D + p.Epsilon,
	}
	for op, w := range want {
		if res.Stats[op].Max != w {
			b.Fatalf("%s max %v != %v", op, res.Stats[op].Max, w)
		}
		b.ReportMetric(float64(res.Stats[op].Max), "vticks_"+op)
	}
}

// BenchmarkFolklore measures the 2d baselines on the same workload for
// the headline comparison.
func BenchmarkFolklore(b *testing.B) {
	p := benchParams()
	for _, alg := range []string{harness.AlgCentral, harness.AlgSequencer} {
		b.Run(alg, func(b *testing.B) {
			var res *harness.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = harness.Run(harness.Config{Params: p, TypeName: "queue",
					Algorithm: alg, Network: harness.NetUniform,
					Offsets: harness.OffZero, Seed: 23},
					harness.Workload{OpsPerProc: 12, MaxGap: p.D / 2, Seed: 23})
				if err != nil {
					b.Fatal(err)
				}
			}
			for op, st := range res.Stats {
				if st.Max > 2*p.D {
					b.Fatalf("%s exceeded 2d: %v", op, st.Max)
				}
				b.ReportMetric(float64(st.Max), "vticks_"+op)
			}
		})
	}
}

// BenchmarkTradeoff sweeps the X parameter (the §5 tradeoff curve) and
// validates the frontier formulas.
func BenchmarkTradeoff(b *testing.B) {
	p := benchParams()
	var pts []harness.SweepPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = harness.SweepXParallel(p, "queue", 8, 29, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range pts {
		if pt.AOPMax != pt.AOPBound || pt.MOPMax != pt.MOPBound || pt.OOPMax != pt.OOPBound {
			b.Fatalf("X=%v: measured (%v,%v,%v) != bounds (%v,%v,%v)",
				pt.X, pt.AOPMax, pt.MOPMax, pt.OOPMax, pt.AOPBound, pt.MOPBound, pt.OOPBound)
		}
	}
	b.ReportMetric(float64(pts[0].AOPMax), "vticks_aop_at_x0")
	b.ReportMetric(float64(pts[len(pts)-1].AOPMax), "vticks_aop_at_xmax")
}

// BenchmarkAblationAllOOP measures the cost of disabling the paper's
// classification (DESIGN.md §5 ablation 1): every operation pays d+ε.
func BenchmarkAblationAllOOP(b *testing.B) {
	p := benchParams()
	var res *harness.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = harness.Run(harness.Config{Params: p, TypeName: "queue",
			Algorithm: harness.AlgCoreAllOOP, Network: harness.NetUniform,
			Offsets: harness.OffZero, Seed: 23},
			harness.Workload{OpsPerProc: 12, MaxGap: p.D / 2, Seed: 23})
		if err != nil {
			b.Fatal(err)
		}
	}
	for op, st := range res.Stats {
		if st.Max != p.D+p.Epsilon {
			b.Fatalf("all-OOP %s max %v != d+ε", op, st.Max)
		}
	}
	b.ReportMetric(float64(p.D+p.Epsilon), "vticks_all_ops")
}

// BenchmarkClockSync measures the Lundelius-Lynch synchronization round
// and validates that the adversarial configuration achieves exactly the
// optimal (1-1/n)u skew.
func BenchmarkClockSync(b *testing.B) {
	p := benchParams()
	net := sim.NewPairwiseNetwork(p.N, p.D-p.U/2)
	for i := 0; i < p.N; i++ {
		if i != 0 {
			net.Set(sim.ProcID(i), 0, p.D-p.U)
		}
		if i != 1 {
			net.Set(sim.ProcID(i), 1, p.D)
		}
	}
	var out []simtime.Duration
	var err error
	for i := 0; i < b.N; i++ {
		out, err = clocksync.Run(p, sim.ZeroOffsets(p.N), net)
		if err != nil {
			b.Fatal(err)
		}
	}
	if got := (out[0] - out[1]).Abs(); got != clocksync.Bound(p) {
		b.Fatalf("adversarial skew %v != optimal bound %v", got, clocksync.Bound(p))
	}
	b.ReportMetric(float64(clocksync.Bound(p)), "vticks_skew")
}

// BenchmarkFigure11 regenerates the computed class diagram over all
// registered data types.
func BenchmarkFigure11(b *testing.B) {
	var reports []classify.Report
	for _, name := range adt.Names() {
		dt, _ := adt.Lookup(name)
		reports = append(reports, classify.Classify(dt, classify.DefaultConfig()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if classify.Figure11(reports) == "" {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkClassify measures the decision procedures across all types.
func BenchmarkClassify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range adt.Names() {
			dt, _ := adt.Lookup(name)
			classify.Classify(dt, classify.DefaultConfig())
		}
	}
}

// BenchmarkLincheck measures checker throughput on a concurrent history.
func BenchmarkLincheck(b *testing.B) {
	p := benchParams()
	res, err := harness.Run(harness.Config{Params: p, TypeName: "queue",
		Algorithm: harness.AlgCore, Network: harness.NetRandom,
		Offsets: harness.OffSpread, Seed: 37},
		harness.Workload{OpsPerProc: 8, MaxGap: 40, Seed: 37})
	if err != nil {
		b.Fatal(err)
	}
	dt, _ := adt.Lookup("queue")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !lincheck.CheckTrace(dt, res.Trace).Linearizable {
			b.Fatal("trace should be linearizable")
		}
	}
}

// benchWidths returns the worker-pool widths to benchmark: sequential,
// a couple of fixed fan-outs, and the machine's core count.
func benchWidths() []int {
	widths := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		widths = append(widths, n)
	}
	return widths
}

// BenchmarkAllTables regenerates all five measured tables through the
// worker pool at several widths. Output is identical at every width (the
// pool derives per-run seeds from run identity, not scheduling), so the
// sub-benchmarks measure pure scheduling overhead/speedup.
func BenchmarkAllTables(b *testing.B) {
	p := benchParams()
	for _, parallel := range benchWidths() {
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tabs, err := harness.MeasureAllTablesParallel(p, 17, parallel)
				if err != nil {
					b.Fatal(err)
				}
				if len(tabs) != 5 {
					b.Fatal("wrong table count")
				}
			}
		})
	}
}

// BenchmarkSweepParallel measures the X-sweep fan-out at several widths.
func BenchmarkSweepParallel(b *testing.B) {
	p := benchParams()
	for _, parallel := range benchWidths() {
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := harness.SweepXParallel(p, "queue", 8, 29, parallel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimThroughput measures raw simulator event throughput with a
// large replicated-log workload.
func BenchmarkSimThroughput(b *testing.B) {
	p := simtime.DefaultParams(8)
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(harness.Config{Params: p, TypeName: "log",
			Algorithm: harness.AlgCore, Network: harness.NetRandom,
			Offsets: harness.OffRandom, Seed: int64(i)},
			harness.Workload{OpsPerProc: 50, MaxGap: 10, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged() {
			b.Fatal("replicas diverged")
		}
	}
}

// BenchmarkBoundsTables regenerates the closed-form tables (no simulator)
// as the fast path of `lintime tables`.
func BenchmarkBoundsTables(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		tabs := bounds.AllTables(p)
		if len(tabs) != 5 {
			b.Fatal("wrong table count")
		}
	}
}

// Example output hook: verify the printed form of a table stays well
// formed (a smoke test compiled into the bench package).
func ExampleTable() {
	p := simtime.Params{N: 5, D: 300, U: 120, Epsilon: 96, X: 96}
	t, _ := bounds.Evaluate(5, p)
	fmt.Println(t.Number)
	// Output: 5
}
