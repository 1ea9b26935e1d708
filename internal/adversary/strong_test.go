package adversary

import (
	"strings"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/simtime"
)

// TestRunnerRejectsInadmissibleDelay pins the canonical admissibility
// predicate on the execution path itself: every consumer (fuzzer, strong
// hunt, bounded model checker) funnels schedules through Runner.Run,
// which must refuse a delay outside [d-u, d] — a second, drifted
// validator in one of the consumers would silently shrink the exhaustive
// space the BMC claims to cover.
func TestRunnerRejectsInadmissibleDelay(t *testing.T) {
	p := simtime.DefaultParams(3)
	r := &Runner{Params: p, DT: adt.NewQueue()}
	base := Schedule{
		Offsets: make([]simtime.Duration, 3),
		Delays:  []simtime.Duration{p.D, p.MinDelay()},
		Plans:   [][]PlannedOp{{{Op: "enqueue", Arg: 1}}, nil, nil},
	}
	if _, err := r.Run(base); err != nil {
		t.Fatalf("admissible schedule rejected: %v", err)
	}
	for _, bad := range []simtime.Duration{p.MinDelay() - 1, p.D + 1} {
		s := base.Clone()
		s.Delays[0] = bad
		if _, err := r.Run(s); err == nil {
			t.Errorf("Run accepted inadmissible delay %v (admissible range [%v, %v])", bad, p.MinDelay(), p.D)
		}
	}
}

// TestStrongHuntFindsForkOnPaperTimers is the headline property: under
// the paper's literal accessor bound (the aop-no-eps mutant, d-X without
// the +ε correction) there are admissible executions that are
// linearizable in every future yet not strongly linearizable — the
// adversary forks a single message delay and the accessor's return
// reveals a different order in each future. The hunt must find, and the
// shrinker must preserve, such a pair.
func TestStrongHuntFindsForkOnPaperTimers(t *testing.T) {
	rep, err := StrongHunt(Options{
		Params:    simtime.DefaultParams(3),
		DT:        adt.NewQueue(),
		Target:    Target{Mutant: "aop-no-eps"},
		Seed:      7,
		Budget:    16,
		StopEarly: true,
		Shrink:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatalf("no strong-linearizability violation found (%d bases, %d forks, %d pairs)",
			rep.Bases, rep.Forks, rep.Pairs)
	}
	v := rep.Violations[0]
	if v.Shrunk == nil {
		t.Fatalf("violation not shrunk")
	}
	// Re-establish the shrunk pair from scratch: both futures clean,
	// histories diverging, tree check failing.
	p := simtime.DefaultParams(3)
	r := &Runner{Params: p, DT: adt.NewQueue(), Target: Target{Mutant: "aop-no-eps"}}
	baseOut, err := r.Run(*v.Shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if baseOut.Violation() != "" {
		t.Fatalf("shrunk base violates %q: not a strong-only counterexample", baseOut.Violation())
	}
	idx, delay, _, _, _, found, err := findFork(r, *v.Shrunk, baseOut)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("shrunk schedule no longer admits a violating fork")
	}
	if idx != v.ShrunkForkIndex || delay != v.ShrunkForkDelay {
		t.Errorf("fork drifted: got (%d, %v), report says (%d, %v)", idx, delay, v.ShrunkForkIndex, v.ShrunkForkDelay)
	}
	var b strings.Builder
	if err := WriteStrongReport(&b, r, rep); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"strong violation 1", "fork: delay[", "future A", "future B", "diverging response"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestStrongHuntRefusesStrategies: the hunt's strategy order is fixed, so
// a requested strategy set would be silently ignored; it is refused.
func TestStrongHuntRefusesStrategies(t *testing.T) {
	_, err := StrongHunt(Options{
		Params: simtime.DefaultParams(3), DT: adt.NewQueue(), Seed: 7, Budget: 10,
		Strategies: []string{StratRandom},
	})
	if err == nil || !strings.Contains(err.Error(), "strategy order is fixed") {
		t.Errorf("StrongHunt with Strategies = %v, want a fixed-order error", err)
	}
}

// TestStrongHuntFindsForkOnCorrectedAlgorithm is the empirical
// realization of the Chandra–Hadzilacos–Jayanti–Toueg impossibility on
// this codebase: even the *corrected* Algorithm 1 — fully linearizable
// under every admissible schedule — is not strongly linearizable. The
// mechanism lives in the execute-wait drain: accessors backdate their
// timestamp by X while mixed ops do not, so a concurrent mixed op with a
// larger timestamp can be committed into replica state (its u+ε execute
// timer fires) before the accessor's respond timer does. Forking one
// delay moves that commit across the accessor's speculative read, and
// both futures stay individually linearizable because the mixed op's
// response pins its commit into the shared prefix.
func TestStrongHuntFindsForkOnCorrectedAlgorithm(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := StrongHunt(Options{
		Params:    simtime.DefaultParams(3),
		DT:        adt.NewQueue(),
		Seed:      7,
		Budget:    16,
		StopEarly: true,
		Shrink:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatalf("corrected algorithm produced no strong-linearizability fork (%d bases, %d forks, %d pairs) — "+
			"the CHHT counterexample should be reachable", rep.Bases, rep.Forks, rep.Pairs)
	}
	v := rep.Violations[0]
	if v.Shrunk == nil {
		t.Fatalf("violation not shrunk")
	}
	// Both futures of the shrunk pair must be clean (linearizable,
	// complete, convergent): the violation is strictly about prefix
	// preservation, not plain correctness of the corrected algorithm.
	p := simtime.DefaultParams(3)
	r := &Runner{Params: p, DT: adt.NewQueue()}
	baseOut, err := r.Run(*v.Shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if baseOut.Violation() != "" {
		t.Fatalf("shrunk base violates %q: corrected algorithm must stay linearizable", baseOut.Violation())
	}
	forkOut, err := r.Run(ForkOf(*v.Shrunk, v.ShrunkForkIndex, v.ShrunkForkDelay))
	if err != nil {
		t.Fatal(err)
	}
	if forkOut.Violation() != "" {
		t.Fatalf("shrunk fork violates %q: corrected algorithm must stay linearizable", forkOut.Violation())
	}
	if historiesEqual(baseOut.Trace, forkOut.Trace) {
		t.Fatalf("shrunk pair no longer diverges")
	}
}
