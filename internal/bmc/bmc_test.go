package bmc

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/adversary"
	"lintime/internal/harness"
	"lintime/internal/lincheck"
	"lintime/internal/sim"
	"lintime/internal/simtime"
)

// TestSmokeSpaceShape pins the size of the CI smoke space. The numbers
// are part of the exhaustiveness claim: if an enumeration change shrinks
// the space silently, this test is the tripwire.
func TestSmokeSpaceShape(t *testing.T) {
	sp, err := NewSpace(Smoke(adt.NewQueue(), adversary.Target{}))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Plans() != 984 || sp.OffsetPatterns() != 3 || sp.Contexts() != 2952 || sp.Runs() != 12960 {
		t.Fatalf("smoke space drifted: plans=%d offsets=%d contexts=%d runs=%d, want 984/3/2952/12960",
			sp.Plans(), sp.OffsetPatterns(), sp.Contexts(), sp.Runs())
	}
}

// TestVerifyCorrectExhaustive sweeps the full smoke space against the
// corrected Algorithm 1: every one of the 12960 schedules must be
// linearizable, complete, and convergent. The strong sweep, by contrast,
// must find contexts with no prefix-preserving linearization — the
// Chandra–Hadzilacos–Jayanti–Toueg impossibility shows up already at
// n=2 with three operations.
func TestVerifyCorrectExhaustive(t *testing.T) {
	rep, err := Verify(Smoke(adt.NewQueue(), adversary.Target{}))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.ViolationsTotal != 0 {
		t.Fatalf("corrected algorithm failed the exhaustive sweep: %+v", rep.Violations)
	}
	if rep.Runs != rep.TotalRuns {
		t.Fatalf("sweep incomplete: %d of %d runs", rep.Runs, rep.TotalRuns)
	}
	if rep.StrongChecked != rep.Contexts {
		t.Fatalf("strong sweep skipped contexts: %d of %d", rep.StrongChecked, rep.Contexts)
	}
	if rep.StrongViolations != 4 || len(rep.StrongExamples) != 4 {
		t.Fatalf("strong sweep found %d violations (%d stored), want 4: the CHHT counterexamples at n=2",
			rep.StrongViolations, len(rep.StrongExamples))
	}
	// Pin the dedup statistics: they are the state-space coverage measure.
	if rep.Signatures != 2714 || rep.Histories != 1228 {
		t.Fatalf("state dedup drifted: %d signatures, %d histories, want 2714 and 1228", rep.Signatures, rep.Histories)
	}
}

// TestStrongExampleIsGenuine replays the first strong violation the
// smoke sweep reports and re-verifies it through the public lincheck
// API: every future of the context is individually linearizable, yet the
// forest of futures admits no prefix-preserving linearization.
func TestStrongExampleIsGenuine(t *testing.T) {
	cfg := Smoke(adt.NewQueue(), adversary.Target{})
	rep, err := Verify(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.StrongExamples) == 0 {
		t.Fatal("no strong example to replay")
	}
	sp, err := NewSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := rep.StrongExamples[0]
	r := &adversary.Runner{Params: cfg.Params, DT: cfg.DT, Trace: sim.TraceOps}
	base, msgs := sp.context(ex.Context)
	tree := lincheck.NewTree()
	seen := map[uint64]bool{}
	for code := uint64(0); code < 1<<uint(msgs); code++ {
		sched := base
		sched.Delays = sp.delays(code, msgs)
		out, err := r.Run(sched)
		if err != nil {
			t.Fatal(err)
		}
		if v := out.Violation(); v != "" {
			t.Fatalf("future %d violates %q: not a strong-only context", code, v)
		}
		h := lincheck.FromTrace(out.Trace)
		if fp := historyFingerprint(h); !seen[fp] {
			seen[fp] = true
			tree.Add(h)
		}
	}
	if tree.Branches() < 2 {
		t.Fatalf("context has %d distinct futures; a strong violation needs at least 2", tree.Branches())
	}
	if tree.Check(cfg.DT).Linearizable {
		t.Fatalf("replayed forest is strongly linearizable — report disagrees")
	}
}

// TestVerifyDeterministicAcrossParallelism: the report is a pure
// function of the Config — worker count must not leak into any field.
func TestVerifyDeterministicAcrossParallelism(t *testing.T) {
	cfg := Config{Params: simtime.DefaultParams(2), DT: adt.NewQueue(), MaxOps: 2, Strong: true}
	cfg.Parallel = 1
	a, err := Verify(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 4
	b, err := Verify(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("report depends on parallelism:\n%+v\nvs\n%+v", a, b)
	}
}

// TestKillMatrixSmoke pins which mutants the smoke space refutes. The
// three timer-discipline mutants die by replica divergence inside the
// n=2 space; the control survives the whole space, and the two mutants
// whose counterexamples need a third process (aop-no-eps, see
// TestSpaceContainsAopKiller) or three ops (literal-drain, see
// TestLiteralDrainKilledAtThreeProcs) survive it too — exhaustively, so
// "survived" here is a theorem about the bounded space, not a missed
// sample.
func TestKillMatrixSmoke(t *testing.T) {
	entries, err := KillMatrix(Smoke(adt.NewQueue(), adversary.Target{}))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"correct":       "",
		"aop-no-eps":    "",
		"literal-drain": "",
		"exec-no-eps":   adversary.KindDiverged,
		"addself-zero":  adversary.KindDiverged,
		"mop-zero":      adversary.KindDiverged,
	}
	if len(entries) != len(want) {
		t.Fatalf("%d kill-matrix rows, want %d", len(entries), len(want))
	}
	for _, e := range entries {
		kind, ok := want[e.Mutant]
		if !ok {
			t.Errorf("unexpected mutant %q", e.Mutant)
			continue
		}
		if e.Killed != (kind != "") || e.Kind != kind {
			t.Errorf("%s: killed=%v kind=%q, want killed=%v kind=%q", e.Mutant, e.Killed, e.Kind, kind != "", kind)
		}
	}
	var b strings.Builder
	WriteKillMatrix(&b, entries)
	for _, wantStr := range []string{"clean (exhaustive)", "killed: diverged", "survived full space"} {
		if !strings.Contains(b.String(), wantStr) {
			t.Errorf("kill matrix rendering missing %q:\n%s", wantStr, b.String())
		}
	}
}

// TestSpaceContainsAopKiller addresses the known counterexample shape for
// the paper's literal accessor bound inside the n=3, 4-op space without
// sweeping its 11.4M runs: a window accessor plus a post-quiescence probe
// on the fast process and one time-zero mutator on each other process.
// The probe pins the committed timestamp order, so the window accessor's
// premature read (it saw the fast announcement but missed the slow one)
// becomes a black-box non-linearizable return.
func TestSpaceContainsAopKiller(t *testing.T) {
	p := simtime.DefaultParams(3)
	target := adversary.Target{Mutant: "aop-no-eps"}
	sp, err := NewSpace(Config{Params: p, DT: adt.NewQueue(), Target: target, MaxOps: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Pin the full-space size: this is the "n<=3, <=4 ops" bound quoted in
	// EXPERIMENTS.md.
	if sp.Contexts() != 152838 || sp.Runs() != 11444706 {
		t.Fatalf("n=3/4-op space drifted: %d contexts, %d runs, want 152838 and 11444706", sp.Contexts(), sp.Runs())
	}
	w, probe := windowStart(p), probeGap(p)
	ctx := sp.FindContext(func(s adversary.Schedule) bool {
		if s.Offsets[0] != p.Epsilon || s.Offsets[1] != 0 || s.Offsets[2] != 0 {
			return false
		}
		if len(s.Plans[0]) != 2 || len(s.Plans[1]) != 1 || len(s.Plans[2]) != 1 {
			return false
		}
		return s.Plans[0][0].Op == "peek" && s.Plans[0][0].Gap == w &&
			s.Plans[0][1].Op == "peek" && s.Plans[0][1].Gap == probe &&
			s.Plans[1][0].Op == "enqueue" && s.Plans[1][0].Gap == 0 &&
			s.Plans[2][0].Op == "enqueue" && s.Plans[2][0].Gap == 0
	})
	if ctx < 0 {
		t.Fatal("killer shape is not in the enumerated space")
	}
	r := &adversary.Runner{Params: p, DT: adt.NewQueue(), Target: target, Trace: sim.TraceOps}
	res, err := sp.checkContext(r, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.violation == nil {
		t.Fatalf("killer context is clean over %d delay vectors", res.runs)
	}
	if res.violation.Kind != adversary.KindNonLinearizable {
		t.Fatalf("killer context violates %q, want %q", res.violation.Kind, adversary.KindNonLinearizable)
	}
	// The same context must be clean for the corrected algorithm: the kill
	// is the mutant's, not the schedule's.
	cr := &adversary.Runner{Params: p, DT: adt.NewQueue(), Trace: sim.TraceOps}
	cres, err := sp.checkContext(cr, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cres.violation != nil {
		t.Fatalf("corrected algorithm fails the killer context: %+v", cres.violation)
	}
}

// TestLiteralDrainKilledAtThreeProcs: the literal-drain mutant survives
// the n=2 smoke space but dies by divergence in the n=3, 3-op space.
func TestLiteralDrainKilledAtThreeProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := Verify(Config{
		Params:    simtime.DefaultParams(3),
		DT:        adt.NewQueue(),
		Target:    adversary.Target{Mutant: "literal-drain"},
		MaxOps:    3,
		StopEarly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatalf("literal-drain survived the n=3 3-op space (%d runs)", rep.Runs)
	}
	if rep.Violations[0].Kind != adversary.KindDiverged {
		t.Fatalf("literal-drain died of %q, want %q", rep.Violations[0].Kind, adversary.KindDiverged)
	}
}

// TestReportJSON: the report round-trips through encoding/json with the
// documented field names — the machine-readable contract of `lintime
// verify -json`.
func TestReportJSON(t *testing.T) {
	cfg := Config{Params: simtime.DefaultParams(2), DT: adt.NewQueue(), MaxOps: 2, Strong: true}
	rep, err := Verify(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"target"`, `"total_runs"`, `"distinct_signatures"`, `"distinct_histories"`, `"ok"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("report JSON missing %s: %s", key, data)
		}
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Runs != rep.Runs || back.OK != rep.OK || back.Signatures != rep.Signatures {
		t.Fatalf("report did not round-trip: %+v vs %+v", back, rep)
	}
}

// TestRejectsUnmodeledTarget: a space is built only for a target the
// backend table resolves. An unknown backend is refused, folklore targets
// carry no mutant registry, and drop augmentation is a quorum-only axis.
func TestRejectsUnmodeledTarget(t *testing.T) {
	if _, err := NewSpace(Config{
		Params: simtime.DefaultParams(2),
		DT:     adt.NewQueue(),
		Target: adversary.Target{Algorithm: "no-such-backend"},
	}); err == nil {
		t.Fatal("NewSpace accepted an unmodeled target")
	}
	if _, err := NewSpace(Config{
		Params: simtime.DefaultParams(2),
		DT:     adt.NewQueue(),
		Target: adversary.Target{Algorithm: harness.AlgCentral, Mutant: "skip-writeback"},
	}); err == nil {
		t.Fatal("NewSpace accepted a mutant on a folklore target")
	}
	if _, err := NewSpace(Config{
		Params: simtime.DefaultParams(2),
		DT:     adt.NewQueue(),
		Target: adversary.Target{Algorithm: harness.AlgCentral},
		Drops:  []int64{0},
	}); err == nil {
		t.Fatal("NewSpace accepted drop augmentation on a non-quorum target")
	}
}

// TestHistoryFingerprintPinned fixes the dedup hash of a history on one
// value, recorded from the fmt.Fprintf formulation: bmc's Histories counts
// (and the benchmark's recorded state counts) depend on it bit for bit.
func TestHistoryFingerprintPinned(t *testing.T) {
	history := []lincheck.Op{
		{ID: 0, Proc: 0, Name: "enqueue", Arg: 3, Invoke: 0, Respond: 21},
		{ID: 1, Proc: 2, Name: "dequeue", Ret: adt.EmptyMarker, Invoke: 7, Respond: 40},
		{ID: 2, Proc: 1, Name: "peek", Ret: -12, Invoke: 45, Respond: simtime.Infinity},
		{ID: 3, Proc: 11, Name: "put", Arg: adt.KV{K: "k", V: -5}, Ret: true, Invoke: -3, Respond: 1234567},
	}
	if got, want := historyFingerprint(history), uint64(0x415431db1dd8a709); got != want {
		t.Fatalf("historyFingerprint = %#x, want %#x", got, want)
	}
}
