package adversary

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/harness"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

func defaultOpts() Options {
	return Options{
		Params: simtime.DefaultParams(5),
		DT:     adt.NewQueue(),
		Seed:   42,
	}
}

// TestKillMatrix is the package's headline property: schedule exploration
// rediscovers every seeded bug from scratch within one batch, shrinks
// each to a replayable minimal counterexample, and never flags the
// corrected algorithm.
func TestKillMatrix(t *testing.T) {
	opts := defaultOpts()
	opts.Budget = 64
	opts.Shrink = true
	entries, err := KillMatrix(opts)
	if err != nil {
		t.Fatal(err)
	}
	core, err := harness.Lookup(harness.AlgCore)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(core.Mutants) + 1; len(entries) != want {
		t.Fatalf("got %d entries, want %d", len(entries), want)
	}
	for _, e := range entries {
		if e.Mutant == "correct" {
			if e.Killed {
				t.Errorf("control (correct algorithm) was flagged: %s", e.Kind)
			}
			continue
		}
		if !e.Killed {
			t.Errorf("mutant %s survived %d schedules", e.Mutant, e.Runs)
			continue
		}
		if e.Witness.Shrunk == nil {
			t.Errorf("mutant %s killed but not shrunk", e.Mutant)
			continue
		}
		// The shrunk schedule must itself replay to a violation.
		r := &Runner{
			Params: opts.Params,
			DT:     opts.DT,
			Target: Target{Mutant: e.Mutant},
		}
		out, err := r.Run(*e.Witness.Shrunk)
		if err != nil {
			t.Errorf("mutant %s: replaying shrunk schedule: %v", e.Mutant, err)
			continue
		}
		if got := out.Violation(); got != e.Witness.ShrunkKind {
			t.Errorf("mutant %s: shrunk replay violation = %q, recorded %q", e.Mutant, got, e.Witness.ShrunkKind)
		}
	}
}

// TestKillMatrixFinding1 pins the EXPERIMENTS.md Finding 1 regression:
// the d-X accessor wait (without +ε) must be killed by a genuine
// black-box non-linearizability witness, not just divergence.
func TestKillMatrixFinding1(t *testing.T) {
	opts := defaultOpts()
	opts.Target = Target{Mutant: "aop-no-eps"}
	opts.Budget = 64
	opts.StopEarly = true
	opts.Shrink = true
	rep, err := Fuzz(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("aop-no-eps mutant survived")
	}
	v := rep.Violations[0]
	if v.Kind != KindNonLinearizable {
		t.Errorf("first violation kind = %s, want %s", v.Kind, KindNonLinearizable)
	}
	if v.Shrunk.NumOps() > 5 {
		t.Errorf("shrunk counterexample has %d ops; expected a tight witness (≤5)", v.Shrunk.NumOps())
	}
}

// TestCorrectAlgorithmClean sweeps ≥10⁴ schedules over the corrected
// Algorithm 1 and requires zero violations of any kind.
func TestCorrectAlgorithmClean(t *testing.T) {
	opts := defaultOpts()
	opts.Budget = 1000
	if !testing.Short() {
		opts.Budget = 10000
	}
	rep, err := Fuzz(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schedules != opts.Budget {
		t.Errorf("evaluated %d schedules, want %d", rep.Schedules, opts.Budget)
	}
	for _, v := range rep.Violations {
		t.Errorf("correct algorithm flagged %s at schedule %d (%s):\n%s",
			v.Kind, v.Index, v.Strategy, v.Schedule.String())
	}
	if rep.Signatures < rep.Schedules/4 {
		t.Errorf("only %d distinct signatures over %d schedules; exploration collapsed", rep.Signatures, rep.Schedules)
	}
}

// TestFolkloreTargetsClean runs the folklore baselines through the same
// adversaries: both are trivially linearizable, so any violation is a
// harness bug.
func TestFolkloreTargetsClean(t *testing.T) {
	for _, alg := range []string{harness.AlgCentral, harness.AlgSequencer} {
		opts := defaultOpts()
		opts.Target = Target{Algorithm: alg}
		opts.Budget = 192
		rep, err := Fuzz(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rep.Violations {
			t.Errorf("%s flagged %s at schedule %d:\n%s", alg, v.Kind, v.Index, v.Schedule.String())
		}
	}
}

// TestFuzzDeterministicAcrossParallelism renders the full report
// (including shrunk counterexamples and diagrams) at parallelism 1 and 4
// and requires byte-identical output.
func TestFuzzDeterministicAcrossParallelism(t *testing.T) {
	render := func(parallel int) string {
		opts := defaultOpts()
		opts.Target = Target{Mutant: "exec-no-eps"}
		opts.Budget = 128
		opts.Shrink = true
		opts.Parallel = parallel
		rep, err := Fuzz(opts)
		if err != nil {
			t.Fatal(err)
		}
		r := &Runner{Params: opts.Params, DT: opts.DT, Target: opts.Target}
		var b bytes.Buffer
		if err := WriteReport(&b, r, rep); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	seq := render(1)
	par := render(4)
	if seq != par {
		t.Errorf("report differs between -parallel 1 and -parallel 4:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "violation") {
		t.Errorf("expected at least one violation in the report:\n%s", seq)
	}
	// The strong hunt folds through the same driver; its report must not
	// depend on the width either.
	for _, mutant := range []string{"", "aop-no-eps"} {
		hunt := func(parallel int) *StrongReport {
			rep, err := StrongHunt(Options{
				Params: simtime.DefaultParams(3), DT: adt.NewQueue(), Target: Target{Mutant: mutant},
				Seed: 7, Budget: 80, Parallel: parallel, StopEarly: true, Shrink: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		if seq, par := hunt(1), hunt(4); !reflect.DeepEqual(seq, par) {
			t.Errorf("strong hunt %q differs between -parallel 1 and -parallel 4:\n%+v\n%+v", mutant, seq, par)
		}
	}
}

// TestShrinkLocallyMinimal verifies 1-minimality of a shrunk
// counterexample: removing any single remaining op destroys the
// violation.
func TestShrinkLocallyMinimal(t *testing.T) {
	opts := defaultOpts()
	opts.Target = Target{Mutant: "aop-no-eps"}
	opts.Budget = 64
	opts.StopEarly = true
	opts.Shrink = true
	rep, err := Fuzz(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("no violation to shrink")
	}
	s := *rep.Violations[0].Shrunk
	r := &Runner{Params: opts.Params, DT: opts.DT, Target: opts.Target}
	for proc := range s.Plans {
		for i := range s.Plans[proc] {
			cand := s.Clone()
			cand.Plans[proc] = append(cand.Plans[proc][:i:i], cand.Plans[proc][i+1:]...)
			out, err := r.Run(cand)
			if err != nil {
				t.Fatal(err)
			}
			if out.Violation() != "" {
				t.Errorf("dropping p%d op %d still violates (%s): shrink not minimal", proc, i, out.Violation())
			}
		}
	}
}

// TestShrinkEntryContracts pins what both shrinkers do with a clean
// schedule: Shrink hands it back unchanged after one run with no kind,
// and ShrinkStrong refuses it.
func TestShrinkEntryContracts(t *testing.T) {
	p := simtime.DefaultParams(3)
	r := &Runner{Params: p, DT: adt.NewQueue()}
	clean := Schedule{
		Offsets: make([]simtime.Duration, 3),
		Delays:  []simtime.Duration{p.D, p.MinDelay()},
		Plans:   [][]PlannedOp{{{Op: "enqueue", Arg: 1}}, {{Op: "peek", Gap: 2 * p.D}}, nil},
	}
	got, kind, runs, err := Shrink(r, clean)
	if err != nil || kind != "" || runs != 1 || !reflect.DeepEqual(got, clean) {
		t.Errorf("Shrink(clean) = %+v, kind %q, %d runs, err %v; want it unchanged, kind \"\", 1 run", got, kind, runs, err)
	}
	if _, _, _, _, err := ShrinkStrong(r, clean); err == nil || !strings.Contains(err.Error(), "non-violating schedule") {
		t.Errorf("ShrinkStrong(clean) err = %v, want the non-violating schedule error", err)
	}
}

// TestRunRuleConcretizes checks the rule→explicit round trip: replaying
// the concretized delay vector reproduces the identical execution.
func TestRunRuleConcretizes(t *testing.T) {
	p := simtime.DefaultParams(5)
	ops := opsFor(adt.NewQueue())
	r := &Runner{Params: p, DT: adt.NewQueue(), Target: Target{Mutant: "aop-no-eps"}}
	for i := 0; i < 8; i++ {
		cand := boundaryCandidate(p, ops, 7, i)
		sched, out, err := r.RunRule(cand.offsets, cand.plans, cand.net)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := r.Run(sched)
		if err != nil {
			t.Fatal(err)
		}
		if replay.Signature() != out.Signature() {
			t.Errorf("corner %d: replay signature %x != original %x", i, replay.Signature(), out.Signature())
		}
		if replay.Violation() != out.Violation() {
			t.Errorf("corner %d: replay violation %q != original %q", i, replay.Violation(), out.Violation())
		}
	}
}

// TestScheduleValidate exercises the schedule validity checks.
func TestScheduleValidate(t *testing.T) {
	p := simtime.DefaultParams(3)
	dt := adt.NewQueue()
	valid := Schedule{
		Offsets: make([]simtime.Duration, 3),
		Delays:  []simtime.Duration{p.D, p.MinDelay()},
		Plans:   [][]PlannedOp{{{Op: "enqueue", Arg: 1, Gap: 0}}, nil, nil},
	}
	if err := valid.Validate(p, dt); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	cases := []struct {
		name string
		edit func(s *Schedule)
	}{
		{"wrong offset count", func(s *Schedule) { s.Offsets = s.Offsets[:2] }},
		{"offset over skew", func(s *Schedule) { s.Offsets[0] = p.Epsilon + 1 }},
		{"delay over d", func(s *Schedule) { s.Delays[0] = p.D + 1 }},
		{"delay under d-u", func(s *Schedule) { s.Delays[1] = p.MinDelay() - 1 }},
		{"wrong plan count", func(s *Schedule) { s.Plans = s.Plans[:2] }},
		{"negative gap", func(s *Schedule) { s.Plans[0][0].Gap = -1 }},
		{"unknown op", func(s *Schedule) { s.Plans[0][0].Op = "frobnicate" }},
	}
	for _, tc := range cases {
		s := valid.Clone()
		tc.edit(&s)
		if err := s.Validate(p, dt); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

// TestMutantsRejectedForFolklore checks that mutants only apply to the
// core algorithm.
func TestMutantsRejectedForFolklore(t *testing.T) {
	r := &Runner{
		Params: simtime.DefaultParams(3),
		DT:     adt.NewQueue(),
		Target: Target{Algorithm: harness.AlgCentral, Mutant: "mop-zero"},
	}
	s := Schedule{
		Offsets: make([]simtime.Duration, 3),
		Plans:   [][]PlannedOp{{{Op: "enqueue", Arg: 1}}, nil, nil},
	}
	if _, err := r.Run(s); err == nil {
		t.Error("expected error applying a mutant to a folklore baseline")
	}
}

// TestOpsForFallbacks checks class derivation across data types,
// including types without mixed or pure ops.
func TestOpsForFallbacks(t *testing.T) {
	for _, name := range adt.Names() {
		dt, err := adt.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		s := opsFor(dt)
		if len(s.mutators) == 0 || len(s.accessors) == 0 || len(s.mixed) == 0 || len(s.all) == 0 {
			t.Errorf("%s: empty op class after fallbacks: %+v", name, s)
		}
	}
}

// TestFuzzUnknownStrategy checks option validation.
func TestFuzzUnknownStrategy(t *testing.T) {
	opts := defaultOpts()
	opts.Strategies = []string{"quantum"}
	if _, err := Fuzz(opts); err == nil {
		t.Error("expected error for unknown strategy")
	}
}

// TestOutcomeViolationOrder checks severity ordering of the violation
// kinds.
func TestOutcomeViolationOrder(t *testing.T) {
	o := &Outcome{Fingerprints: []string{"a", "b"}, Incomplete: true}
	o.Check.Linearizable = false
	if got := o.Violation(); got != KindNonLinearizable {
		t.Errorf("got %s, want %s", got, KindNonLinearizable)
	}
	o.Check.Linearizable = true
	if got := o.Violation(); got != KindIncomplete {
		t.Errorf("got %s, want %s", got, KindIncomplete)
	}
	o.Incomplete = false
	if got := o.Violation(); got != KindDiverged {
		t.Errorf("got %s, want %s", got, KindDiverged)
	}
	o.Fingerprints[1] = "a"
	if got := o.Violation(); got != "" {
		t.Errorf("got %s, want clean", got)
	}
}

// TestScheduleString pins the compact rendering format.
func TestScheduleString(t *testing.T) {
	s := Schedule{
		Offsets: []simtime.Duration{1, 0},
		Delays:  []simtime.Duration{5},
		Plans: [][]PlannedOp{
			{{Op: "enqueue", Arg: 7, Gap: 0}, {Op: "peek", Arg: nil, Gap: 3}},
			nil,
		},
	}
	got := s.String()
	want := "offsets [1 0]\ndelays  [5] (then d)\np0: enqueue(7)@0 | peek(⊥)@+3\n"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	var _ spec.Value = s.Plans[0][0].Arg
}
