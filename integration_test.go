package lintime

// End-to-end integration tests spanning the full pipeline the paper
// describes: synchronize clocks to the optimal ε, deploy Algorithm 1 on
// the synchronized system, run workloads, verify linearizability, and
// cross-check the measured latencies against the published tables.

import (
	"testing"

	"lintime/internal/adt"
	"lintime/internal/bounds"
	"lintime/internal/classify"
	"lintime/internal/clocksync"
	"lintime/internal/core"
	"lintime/internal/harness"
	"lintime/internal/lincheck"
	"lintime/internal/lowerbound"
	"lintime/internal/sim"
	"lintime/internal/simtime"
)

// TestFullPipelineSyncThenReplicate runs the complete deployment story:
// badly skewed clocks are synchronized by the Lundelius-Lynch round to
// within (1-1/n)u, and Algorithm 1 then provides a linearizable queue on
// the synchronized system with its class latencies intact.
func TestFullPipelineSyncThenReplicate(t *testing.T) {
	p := simtime.DefaultParams(5)

	// Phase 1: synchronize wildly skewed clocks.
	initial := []simtime.Duration{0, 40 * p.D, 13 * p.D, 77 * p.D, 5 * p.D}
	corrected, err := clocksync.Run(p, initial, sim.NewRandomNetwork(p.D, p.U, 11))
	if err != nil {
		t.Fatal(err)
	}
	// Normalize and make room for the ±2-tick integer-averaging slack.
	min := corrected[0]
	for _, c := range corrected {
		if c < min {
			min = c
		}
	}
	offsets := make([]simtime.Duration, len(corrected))
	for i := range corrected {
		offsets[i] = corrected[i] - min
	}
	deploy := p
	deploy.Epsilon = clocksync.Bound(p) + 2
	deploy.X = deploy.Epsilon

	// Phase 2: deploy Algorithm 1 with the synchronized offsets.
	queue, _ := adt.Lookup("queue")
	classes := classify.Classify(queue, classify.DefaultConfig()).Classes()
	nodes := core.NewReplicas(deploy.N, queue, classes, core.DefaultTimers(deploy))
	eng, err := sim.NewEngine(deploy, offsets, sim.NewRandomNetwork(deploy.D, deploy.U, 13), nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < deploy.N; i++ {
		eng.InvokeAt(sim.ProcID(i), simtime.Time(i*7), adt.OpEnqueue, i)
	}
	eng.InvokeAt(0, 5*simtime.Time(deploy.D), adt.OpDequeue, nil)
	eng.InvokeAt(1, 8*simtime.Time(deploy.D), adt.OpPeek, nil)
	tr := eng.Run()
	if err := tr.CheckComplete(); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckAdmissible(); err != nil {
		t.Fatal(err)
	}
	if !lincheck.CheckTrace(queue, tr).Linearizable {
		t.Fatal("post-sync run not linearizable")
	}
	for _, op := range tr.Ops {
		var bound simtime.Duration
		switch op.Op {
		case adt.OpEnqueue:
			bound = deploy.X + deploy.Epsilon
		case adt.OpPeek:
			bound = deploy.D - deploy.X + deploy.Epsilon
		default:
			bound = deploy.D + deploy.Epsilon
		}
		if op.Latency() > bound {
			t.Errorf("%s latency %v exceeds class bound %v", op.Op, op.Latency(), bound)
		}
	}
}

// TestREADMEHeadlineNumbers pins the numbers quoted in README.md's
// "Reproduced results" table for the canonical configuration.
func TestREADMEHeadlineNumbers(t *testing.T) {
	p := simtime.DefaultParams(5)
	if p.D != 20160 || p.U != 10080 || p.Epsilon != 8064 || p.X != 8064 {
		t.Fatalf("canonical config changed: %+v (update README)", p)
	}
	checks := []struct {
		name string
		got  simtime.Duration
		want simtime.Duration
	}{
		{"u/4", bounds.QuarterU(p).Value, 2520},
		{"(1-1/n)u", bounds.LastSensitive(p, p.N).Value, 8064},
		{"d+min", bounds.PairFree(p).Value, 26880},
		{"X+ε", bounds.UpperMOP(p).Value, 16128},
		{"d-X+ε", bounds.UpperAOP(p).Value, 20160},
		{"d+ε", bounds.UpperOOP(p).Value, 28224},
		{"d+2ε", bounds.UpperSum(p).Value, 36288},
		{"2d", 2 * p.D, 40320},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v (update README)", c.name, c.got, c.want)
		}
	}
}

// TestEveryTableRowBacksItsClaim re-derives the lower-bound column of the
// generated queue table from the classifier and asserts the measured
// column matches Algorithm 1's formulas — the end-to-end "tables are
// computed, not transcribed" guarantee.
func TestEveryTableRowBacksItsClaim(t *testing.T) {
	p := simtime.DefaultParams(4)
	mt, err := harness.MeasureTableParallel(2, p, 99, 1)
	if err != nil {
		t.Fatal(err)
	}
	queue, _ := adt.Lookup("queue")
	rep := classify.Classify(queue, classify.DefaultConfig())
	for _, row := range mt.Rows {
		opRep, ok := rep.Find(row.Operation)
		if !ok {
			continue // sum rows
		}
		derived := bounds.FromClassification(p, opRep, p.N)
		if derived.Expr != row.NewLower.Expr {
			t.Errorf("%s: derived lower %q != table lower %q", row.Operation, derived.Expr, row.NewLower.Expr)
		}
		if row.Measured.Max >= 0 && row.Measured.Max != row.Measured.AtX.Value {
			t.Errorf("%s: measured %v != formula %v", row.Operation, row.Measured.Max, row.Measured.AtX.Value)
		}
	}
}

// TestAllTheoremsAtCanonicalConfig runs every mechanized theorem at the
// canonical configuration as a single integration sweep.
func TestAllTheoremsAtCanonicalConfig(t *testing.T) {
	p := simtime.DefaultParams(5)
	m := bounds.MinPairFree(p)
	kd := simtime.Duration(p.N)
	runs := []struct {
		name string
		f    func() (*lowerbound.Report, error)
	}{
		{"thm2", func() (*lowerbound.Report, error) { return lowerbound.Theorem2(p, "queue", "peek", p.U/4-1) }},
		{"thm3", func() (*lowerbound.Report, error) { return lowerbound.Theorem3(p, "queue", p.N, p.U-p.U/kd-1) }},
		{"thm4", func() (*lowerbound.Report, error) { return lowerbound.Theorem4(p, "queue", "dequeue", p.D+m-1) }},
		{"thm5", func() (*lowerbound.Report, error) {
			return lowerbound.Theorem5(p, "queue", "enqueue", "peek", p.D-2*m, 3*m-1)
		}},
	}
	for _, r := range runs {
		rep, err := r.f()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if !rep.ViolationFound {
			t.Errorf("%s: no violation below the bound:\n%s", r.name, rep)
		}
	}
}
