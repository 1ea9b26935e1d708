package adversary

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/harness"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// TestCachedSignatureMatchesTraceOracle pins the incremental signature
// (engine step hash continued over message records, available at
// sim.TraceOps) against the original full-trace computation: the
// coverage-greedy strategy's novelty pool, and the campaign report's
// "signatures N distinct" line, depend on the two being byte-identical.
func TestCachedSignatureMatchesTraceOracle(t *testing.T) {
	p := simtime.DefaultParams(3)
	dt, err := adt.Lookup("queue")
	if err != nil {
		t.Fatal(err)
	}
	full := &Runner{Params: p, DT: dt}
	ops := &Runner{Params: p, DT: dt, Trace: sim.TraceOps}
	for i := 0; i < 16; i++ {
		cand := randomCandidate(p, opsFor(dt), 7, "sig-test", i, false)
		outFull, err := full.Run(cand.sched)
		if err != nil {
			t.Fatal(err)
		}
		if !outFull.hasSig {
			t.Fatal("runner outcome missing cached signature")
		}
		oracle := signatureFromTrace(outFull.Trace)
		if outFull.Signature() != oracle {
			t.Fatalf("cand %d: cached signature %x != trace oracle %x",
				i, outFull.Signature(), oracle)
		}
		outOps, err := ops.Run(cand.sched)
		if err != nil {
			t.Fatal(err)
		}
		if len(outOps.Trace.Steps) != 0 {
			t.Fatalf("cand %d: TraceOps runner recorded %d steps", i, len(outOps.Trace.Steps))
		}
		if outOps.Signature() != oracle {
			t.Fatalf("cand %d: TraceOps signature %x != full-trace oracle %x",
				i, outOps.Signature(), oracle)
		}
	}
}

// TestPinnedSignatures drives one fixed two-op schedule through every
// backend the kill matrices and sweeps target — the control and, where
// the table declares any, one mutant — and compares the run against
// constants recorded before the backends moved into the harness table
// (commit 6071e61). A builder that changes a protocol's behaviour, or a
// mutant that stops being applied, shifts the event order and fails here.
func TestPinnedSignatures(t *testing.T) {
	p := simtime.DefaultParams(3)
	queue, register := spec.DataType(adt.NewQueue()), spec.DataType(adt.NewRegister(0))
	onQueue := [2]PlannedOp{{Op: "enqueue", Arg: 1}, {Op: "peek", Gap: p.X / 2}}
	onRegister := [2]PlannedOp{{Op: "write", Arg: 1}, {Op: "read", Gap: p.X / 2}}
	cases := []struct {
		target    Target
		dt        spec.DataType
		ops       [2]PlannedOp
		sig       uint64
		msgs      int
		violation string
		fps       int
	}{
		{Target{Algorithm: harness.AlgCore}, queue, onQueue, 0x60de1a40bb3723db, 2, "", 3},
		{Target{Algorithm: harness.AlgCore, Mutant: "mop-zero"}, queue, onQueue, 0x6259409cf9a321ef, 2, KindNonLinearizable, 3},
		{Target{Algorithm: harness.AlgCentral}, queue, onQueue, 0x588c2acaaf81478f, 4, "", 0},
		{Target{Algorithm: harness.AlgSequencer}, queue, onQueue, 0xa7bfa9f6451d61df, 6, "", 0},
		{Target{Algorithm: harness.AlgQuorum}, register, onRegister, 0xefcd90cd6fafb020, 16, "", 0},
		{Target{Algorithm: harness.AlgQuorum, Mutant: "skip-writeback"}, register, onRegister, 0x7bbabc80edcb2709, 12, "", 0},
	}
	for _, tc := range cases {
		r := &Runner{Params: p, DT: tc.dt, Target: tc.target}
		out, err := r.Run(Schedule{
			Offsets: []simtime.Duration{0, p.Epsilon, 0},
			Plans:   [][]PlannedOp{nil, {tc.ops[0]}, {tc.ops[1]}},
			Delays:  []simtime.Duration{p.D, p.MinDelay(), p.D, p.MinDelay()},
		})
		if err != nil {
			t.Errorf("%s: %v", tc.target, err)
			continue
		}
		if got := out.Signature(); got != tc.sig {
			t.Errorf("%s: signature %#x, recorded %#x", tc.target, got, tc.sig)
		}
		if got := len(out.Trace.Msgs); got != tc.msgs {
			t.Errorf("%s: %d messages, recorded %d", tc.target, got, tc.msgs)
		}
		if got := out.Violation(); got != tc.violation {
			t.Errorf("%s: violation %q, recorded %q", tc.target, got, tc.violation)
		}
		if got := len(out.Fingerprints); got != tc.fps {
			t.Errorf("%s: %d fingerprints, recorded %d", tc.target, got, tc.fps)
		}
	}
}

// raceEnabled is set by race_test.go, which only a -race build compiles.
var raceEnabled bool

// TestRunnerResolvesTargetOnce pins the hot-loop contract: a Runner pays
// for classification, the mutant lookup and the type check on first use,
// so a schedule against a mutated target allocates no more than one
// against the correct protocol — and that one no more than recorded.
func TestRunnerResolvesTargetOnce(t *testing.T) {
	p := simtime.DefaultParams(3)
	dt, err := adt.Lookup("queue")
	if err != nil {
		t.Fatal(err)
	}
	sched := randomCandidate(p, opsFor(dt), 1, "bench", 0, false).sched
	var sig uint64
	visit := func(out *Outcome) error {
		sig = out.Signature()
		return nil
	}
	allocs := func(target Target, borrow bool) float64 {
		r := &Runner{Params: p, DT: dt, Target: target, Trace: sim.TraceOps}
		run := func() {
			var err error
			if borrow {
				err = r.Visit(sched, visit)
			} else {
				_, err = r.Run(sched)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if !raceEnabled {
			return testing.AllocsPerRun(50, run)
		}
		// Under the race detector sync.Pool drops a quarter of its Puts at
		// random and a run that rebuilds its kit costs more, so only the
		// cheapest single run is comparable there.
		best := math.Inf(1)
		for i := 0; i < 20; i++ {
			best = min(best, testing.AllocsPerRun(1, run))
		}
		return best
	}
	// exec-no-eps leaves this schedule's event count unchanged, so the
	// two runs differ only in what resolving the target costs.
	correct, mutated := allocs(Target{}, false), allocs(Target{Mutant: "exec-no-eps"}, false)
	if mutated > correct {
		t.Errorf("mutated target: %.0f allocs/run, correct target %.0f", mutated, correct)
	}
	// What one schedule allocates end to end once its worker's kit is
	// built: Run's copy of the outcome, of its trace (four allocations at
	// sim.TraceOps: the Trace, its offsets, Msgs and Ops), of the
	// checker's witness and of the fingerprint slice — 7 here. The
	// engine's events, the replicas' timer tags and the delay network
	// allocate nothing per schedule, and broadcast payloads one chunk per
	// 64. A kit rebuilt after a collection costs more;
	// BenchmarkRunnerRun's mean includes that, AllocsPerRun rounds it
	// away.
	if correct > 7 {
		t.Errorf("correct target: %.0f allocs/run, recorded floor 7", correct)
	}
	// Visit lends the kit's own outcome, trace, witness and fingerprints,
	// which the kit reuses: nothing is left to allocate.
	if borrowed := allocs(Target{}, true); borrowed != 0 || sig == 0 {
		t.Errorf("correct target: %.0f allocs per borrowed run (signature %#x), want 0", borrowed, sig)
	}
}

// TestRunnerConcurrentRun hands one Runner's pooled kits between eight
// goroutines (run under -race in `make race`): a kit's engine, nodes,
// table and checker are single-threaded and carry state from one schedule
// to the next, so a hand-off that shared one, or a table poisoned by an
// earlier history (the mutant target's are often not linearizable), would
// show as an outcome differing from a fresh Runner's sequential one.
func TestRunnerConcurrentRun(t *testing.T) {
	p := simtime.DefaultParams(3)
	dt, err := adt.Lookup("queue")
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []Target{{}, {Mutant: "mop-zero"}} {
		const goroutines, each = 8, 48
		scheds := make([]Schedule, goroutines*each)
		want := make([]*Outcome, len(scheds))
		bad := 0
		for i := range scheds {
			scheds[i] = randomCandidate(p, opsFor(dt), 3, "concurrent", i, false).sched
			fresh := &Runner{Params: p, DT: dt, Target: target, Trace: sim.TraceOps}
			if want[i], err = fresh.Run(scheds[i]); err != nil {
				t.Fatal(err)
			}
			if !want[i].Check.Linearizable {
				bad++
			}
		}
		if (target.Mutant != "") != (bad > 0) {
			t.Fatalf("%s: %d of %d schedules not linearizable", target, bad, len(scheds))
		}
		shared := &Runner{Params: p, DT: dt, Target: target, Trace: sim.TraceOps}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(scheds); i += goroutines {
					got, err := shared.Run(scheds[i])
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got.Check, want[i].Check) || got.Signature() != want[i].Signature() ||
						got.Violation() != want[i].Violation() {
						t.Errorf("schedule %d (%s): shared Runner %+v / %q, fresh Runner %+v / %q",
							i, target, got.Check, got.Violation(), want[i].Check, want[i].Violation())
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
