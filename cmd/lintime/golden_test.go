package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/adversary"
	"lintime/internal/bmc"
	"lintime/internal/bounds"
	"lintime/internal/classify"
	"lintime/internal/core"
	"lintime/internal/harness"
	"lintime/internal/lowerbound"
	"lintime/internal/simtime"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// everything it printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput so far:\n%s", ferr, out)
	}
	return out
}

// captureViolating is captureStdout for a single-target fuzz or verify
// whose report holds violations: the command must fail, saying so.
func captureViolating(t *testing.T, f func() error) string {
	t.Helper()
	var err error
	out := captureStdout(t, func() error { err = f(); return nil })
	if err == nil || !strings.Contains(err.Error(), " violations (the first is ") {
		t.Fatalf("want the command to fail on its violations, got %v\noutput:\n%s", err, out)
	}
	return out
}

// TestSingleTargetVerdictIsExitStatus: a single-target verify or fuzz
// fails when its report holds a violation, a -mutant run included, and
// succeeds on a clean sweep of the correct algorithm.
func TestSingleTargetVerdictIsExitStatus(t *testing.T) {
	captureViolating(t, func() error { return cmdVerify([]string{"-mutant", "mop-zero"}) })
	captureViolating(t, func() error { return cmdFuzz([]string{"-mutant", "exec-no-eps", "-budget", "50"}) })
	captureStdout(t, func() error { return cmdVerify(nil) })
}

// checkGolden compares output against testdata/<name>.golden, rewriting
// it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s output differs from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
			name, path, got, want)
	}
}

// TestGoldenTables pins the five static tables: pure formula
// evaluation over the classifier's findings, no randomness.
func TestGoldenTables(t *testing.T) {
	got := captureStdout(t, func() error { return cmdTables(nil) })
	checkGolden(t, "tables", got)
}

// TestGoldenLowerbound pins the mechanized Theorem 2 construction, which
// is deterministic for fixed parameters.
func TestGoldenLowerbound(t *testing.T) {
	got := captureStdout(t, func() error {
		return cmdLowerbound([]string{"-thm", "2", "-n", "3"})
	})
	checkGolden(t, "lowerbound-thm2", got)
}

// TestGoldenLowerboundAll pins every construction — Theorems 2 and 4 on
// each op of every type in their class, Theorem 5 on each pair classify
// accepts, Theorem 3 on each stock scenario — twice: at the default
// budget (bound-1) and at the bound itself. It adds Theorems 4 and 5 in
// the 2m ≤ u regime where the written proof does not apply, and Theorem
// 3 at k = 2.
func TestGoldenLowerboundAll(t *testing.T) {
	var out strings.Builder
	run := func(args ...string) {
		out.WriteString("$ lintime lowerbound " + strings.Join(args, " ") + "\n")
		out.WriteString(captureStdout(t, func() error { return cmdLowerbound(args) }))
	}
	types := map[int][]string{3: lowerbound.ScenarioTypes()}
	for _, name := range adt.Names() {
		dt, err := adt.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		rep := classify.Classify(dt, classify.DefaultConfig())
		for _, thm := range []int{2, 4, 5} {
			if len(lowerbound.Ops(thm, rep)) > 0 {
				types[thm] = append(types[thm], name)
			}
		}
	}
	for _, set := range []struct {
		params   []string
		theorems []int
	}{
		{nil, []int{2, 3, 4, 5}},
		{[]string{"-k", "2"}, []int{3}},
		{[]string{"-d", "300", "-u", "100", "-eps", "10"}, []int{4, 5}},
	} {
		params := set.params
		for _, thm := range set.theorems {
			bound := lowerboundBound(t, thm, params)
			for _, typeName := range types[thm] {
				args := append(slices.Clone(params), "-thm", strconv.Itoa(thm), "-type", typeName)
				run(args...)
				run(append(args, "-budget", strconv.FormatInt(int64(bound), 10))...)
			}
		}
	}
	checkGolden(t, "lowerbound-all", out.String())
}

// lowerboundBound is Theorem thm's bound under the lowerbound command's
// parameter flags.
func lowerboundBound(t *testing.T, thm int, args []string) simtime.Duration {
	t.Helper()
	fs := flag.NewFlagSet("bound", flag.ContinueOnError)
	getParams := paramFlags(fs)
	k := fs.Int("k", 0, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	p, err := getParams()
	if err != nil {
		t.Fatal(err)
	}
	if *k == 0 {
		*k = p.N
	}
	switch thm {
	case 2:
		return bounds.QuarterU(p).Value
	case 3:
		return bounds.LastSensitive(p, *k).Value
	case 4:
		return bounds.PairFree(p).Value
	}
	return bounds.SumDiscriminated(p).Value
}

// TestGoldenClassifyWitnesses pins the classification of every registered
// type with its witnesses. The witnesses print reachable states'
// fingerprints, so the golden also pins which states the bounded
// exploration reaches, and in what order.
func TestGoldenClassifyWitnesses(t *testing.T) {
	got := captureStdout(t, func() error {
		return cmdClassify([]string{"-witnesses"})
	})
	checkGolden(t, "classify-witnesses", got)
}

// TestGoldenClassifyFigure11 pins the computed Figure 11 diagram over
// every registered type.
func TestGoldenClassifyFigure11(t *testing.T) {
	got := captureStdout(t, func() error {
		return cmdClassify([]string{"-figure11"})
	})
	checkGolden(t, "classify-figure11", got)
}

// TestGoldenFuzz pins a small fuzzing campaign against a seeded mutant:
// the campaign, the shrunk counterexample, and the rendered diagram are
// all deterministic functions of (seed, budget).
func TestGoldenFuzz(t *testing.T) {
	args := []string{"-budget", "100", "-seed", "7", "-mutant", "aop-no-eps"}
	got := captureViolating(t, func() error {
		return cmdFuzz(args)
	})
	checkGolden(t, "fuzz-aop-no-eps", got)

	// The same campaign must be byte-identical at every parallelism level.
	for _, par := range []string{"1", "4"} {
		out := captureViolating(t, func() error {
			return cmdFuzz(append([]string{"-parallel", par}, args...))
		})
		if out != got {
			t.Errorf("fuzz output at -parallel %s differs from default:\n--- got ---\n%s\n--- want ---\n%s", par, out, got)
		}
	}
}

// TestGoldenFuzzClean pins a clean campaign over the corrected algorithm.
func TestGoldenFuzzClean(t *testing.T) {
	got := captureStdout(t, func() error {
		return cmdFuzz([]string{"-budget", "100", "-seed", "7"})
	})
	checkGolden(t, "fuzz-clean", got)
}

// TestGoldenFuzzStrong pins the strong-linearizability hunt against the
// paper's literal accessor bound: the fork pair, its shrink, and both
// rendered futures are deterministic functions of (seed, budget).
func TestGoldenFuzzStrong(t *testing.T) {
	args := []string{"-strong", "-budget", "16", "-seed", "7", "-n", "3", "-mutant", "aop-no-eps"}
	got := captureStdout(t, func() error {
		return cmdFuzz(args)
	})
	checkGolden(t, "fuzz-strong-aop-no-eps", got)

	for _, par := range []string{"1", "4"} {
		out := captureStdout(t, func() error {
			return cmdFuzz(append([]string{"-parallel", par}, args...))
		})
		if out != got {
			t.Errorf("strong fuzz output at -parallel %s differs from default:\n--- got ---\n%s\n--- want ---\n%s", par, out, got)
		}
	}
}

// TestGoldenVerify pins a small exhaustive sweep: the space enumeration
// is fixed, so the whole report — including the state-dedup statistics —
// is byte-stable at every parallelism level.
func TestGoldenVerify(t *testing.T) {
	args := []string{"-ops", "2"}
	got := captureStdout(t, func() error {
		return cmdVerify(args)
	})
	checkGolden(t, "verify-ops2", got)

	for _, par := range []string{"1", "4"} {
		out := captureStdout(t, func() error {
			return cmdVerify(append([]string{"-parallel", par}, args...))
		})
		if out != got {
			t.Errorf("verify output at -parallel %s differs from default:\n--- got ---\n%s\n--- want ---\n%s", par, out, got)
		}
	}
}

// TestGoldenVerifyKillMatrix pins the exhaustive kill matrix over the CI
// smoke space.
func TestGoldenVerifyKillMatrix(t *testing.T) {
	got := captureStdout(t, func() error {
		return cmdVerify([]string{"-mutant", "all"})
	})
	checkGolden(t, "verify-kill-matrix", got)
}

// TestGoldenVerifyKillMatrixTypes pins the exhaustive kill matrix on
// every registered data type: which mutants a type's algebra lets
// survive the smoke space is part of the record.
func TestGoldenVerifyKillMatrixTypes(t *testing.T) {
	var out strings.Builder
	for _, name := range adt.Names() {
		args := []string{"-type", name, "-mutant", "all"}
		out.WriteString("$ lintime verify " + strings.Join(args, " ") + "\n")
		out.WriteString(captureStdout(t, func() error { return cmdVerify(args) }))
	}
	checkGolden(t, "verify-kill-matrix-types", out.String())
}

// TestGoldenVerifyKillMatrixJSON pins the -json shape of the exhaustive
// kill matrix: one object per row, control first, with the verdict kind
// and space omitted when empty.
func TestGoldenVerifyKillMatrixJSON(t *testing.T) {
	got := captureStdout(t, func() error {
		return cmdVerify([]string{"-mutant", "all", "-json"})
	})
	checkGolden(t, "verify-kill-matrix-json", got)
}

// TestGoldenVerifyTimers pins core mutants as data: a target that names
// no mutant but carries a timers-only mutant's Timers value gets that
// mutant's reports byte for byte (all but the target's name), both from
// the exhaustive n=2 / 3-op sweep as the kill matrix runs it and from a
// `-budget 200 -seed 1` fuzz campaign. A backend without Algorithm 1
// timers refuses the value.
func TestGoldenVerifyTimers(t *testing.T) {
	queue, err := adt.Lookup("queue")
	if err != nil {
		t.Fatal(err)
	}
	verify := func(p simtime.Params, target adversary.Target) (string, error) {
		rep, err := bmc.Verify(bmc.Config{Params: p, DT: queue, Target: target, MaxOps: 3, StopEarly: true})
		if err != nil {
			return "", err
		}
		rep.Target = ""
		b, err := json.Marshal(rep)
		return string(b), err
	}
	fuzz := func(p simtime.Params, target adversary.Target) (string, error) {
		rep, err := adversary.Fuzz(adversary.Options{Params: p, DT: queue, Target: target,
			Seed: 1, Budget: 200, StopEarly: true, Shrink: true})
		if err != nil {
			return "", err
		}
		rep.Target = adversary.Target{}
		b, err := json.Marshal(rep)
		return string(b), err
	}
	with := func(edit func(*core.Timers, simtime.Params)) func(simtime.Params) core.Timers {
		return func(p simtime.Params) core.Timers {
			v := core.DefaultTimers(p)
			edit(&v, p)
			return v
		}
	}
	mutants := []struct {
		name   string
		timers func(simtime.Params) core.Timers
	}{
		{"aop-no-eps", core.PaperTimers},
		{"exec-no-eps", with(func(v *core.Timers, p simtime.Params) { v.ExecuteWait = p.U })},
		{"addself-zero", with(func(v *core.Timers, _ simtime.Params) { v.AddSelf = 0 })},
		{"mop-zero", with(func(v *core.Timers, _ simtime.Params) { v.MOPRespond = 0 })},
	}
	for _, m := range mutants {
		for _, search := range []struct {
			name string
			p    simtime.Params
			run  func(simtime.Params, adversary.Target) (string, error)
		}{{"verify", simtime.DefaultParams(2), verify}, {"fuzz", simtime.DefaultParams(5), fuzz}} {
			v := m.timers(search.p)
			named, err := search.run(search.p, adversary.Target{Mutant: m.name})
			if err != nil {
				t.Fatal(err)
			}
			data, err := search.run(search.p, adversary.Target{Timers: &v})
			if err != nil {
				t.Fatal(err)
			}
			if named != data {
				t.Errorf("%s: Timers %+v reports differently from mutant %s:\n--- timers ---\n%s\n--- mutant ---\n%s",
					search.name, v, m.name, data, named)
			}
		}
	}
	v := core.DefaultTimers(simtime.DefaultParams(2))
	for _, alg := range []string{harness.AlgQuorum, harness.AlgCentral} {
		target := adversary.Target{Algorithm: alg, Timers: &v}
		if _, err := verify(simtime.DefaultParams(2), target); err == nil || !strings.Contains(err.Error(), "timers") {
			t.Errorf("verify on %s with a timers value: err %v, want the timers refusal", alg, err)
		}
		if _, err := fuzz(simtime.DefaultParams(2), target); err == nil || !strings.Contains(err.Error(), "timers") {
			t.Errorf("fuzz on %s with a timers value: err %v, want the timers refusal", alg, err)
		}
	}
}

// TestGoldenVerifyCorePaper: the core-paper ablation row is model-checked
// like any other. It builds the same replicas as core's aop-no-eps mutant
// (TestBackendTable), so the two sweeps of the n=2 / 3-op smoke space
// report identically but for the target's name.
func TestGoldenVerifyCorePaper(t *testing.T) {
	queue, err := adt.Lookup("queue")
	if err != nil {
		t.Fatal(err)
	}
	report := func(target adversary.Target) string {
		rep, err := bmc.Verify(bmc.Smoke(queue, target))
		if err != nil {
			t.Fatal(err)
		}
		rep.Target = ""
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	paper := report(adversary.Target{Algorithm: harness.AlgCorePaper})
	mutant := report(adversary.Target{Algorithm: harness.AlgCore, Mutant: "aop-no-eps"})
	if paper != mutant {
		t.Errorf("core-paper reports differently from core+aop-no-eps:\n--- core-paper ---\n%s\n--- aop-no-eps ---\n%s", paper, mutant)
	}
}

// TestGoldenVerifyCoreAllOOP pins the exhaustive n=2 / 3-op sweep of the
// core-alloop ablation, Algorithm 1 with every operation classed mixed.
func TestGoldenVerifyCoreAllOOP(t *testing.T) {
	got := captureStdout(t, func() error {
		return cmdVerify([]string{"-backend", "core-alloop", "-n", "2", "-ops", "3"})
	})
	checkGolden(t, "verify-core-alloop", got)
}

// TestGoldenVerifyQuorum pins the exhaustive sweep of the ABD quorum
// backend over its two-op crash-augmented space: -backend quorum routes
// the register type and the quorum message model automatically, and the
// report is byte-stable at every parallelism level.
func TestGoldenVerifyQuorum(t *testing.T) {
	args := []string{"-backend", "quorum", "-d", "8", "-u", "6", "-ops", "2"}
	got := captureStdout(t, func() error {
		return cmdVerify(args)
	})
	checkGolden(t, "verify-quorum-ops2", got)

	for _, par := range []string{"1", "4"} {
		out := captureStdout(t, func() error {
			return cmdVerify(append([]string{"-parallel", par}, args...))
		})
		if out != got {
			t.Errorf("quorum verify output at -parallel %s differs from default:\n--- got ---\n%s\n--- want ---\n%s", par, out, got)
		}
	}
}

// TestGoldenVerifyQuorumKillMatrix pins the exhaustive quorum kill
// matrix: the control survives its full space, crash-threshold dies
// inside the shared sweep, and the remaining mutants die in their
// targeted certificate contexts (recorded in the space column).
func TestGoldenVerifyQuorumKillMatrix(t *testing.T) {
	got := captureStdout(t, func() error {
		return cmdVerify([]string{"-backend", "quorum", "-d", "8", "-u", "6", "-ops", "2", "-mutant", "all"})
	})
	checkGolden(t, "verify-quorum-kill-matrix", got)
}

// TestGoldenVerifyStrongSequencer pins the strong-linearizability
// headline: the total-order-broadcast sequencer is strongly linearizable
// over its whole n=2 three-op space — 984 contexts swept, none without a
// prefix-preserving linearization — where Algorithm 1 and the ABD
// register both fail the same sweep.
func TestGoldenVerifyStrongSequencer(t *testing.T) {
	got := captureStdout(t, func() error {
		return cmdVerify([]string{"-backend", "sequencer", "-ops", "3"})
	})
	checkGolden(t, "verify-strong-sequencer", got)
}

// TestGoldenFuzzKillMatrix pins the core fuzzing kill matrix end to end:
// the table, then each killed mutant's shrunk witness and its replayed
// diagram.
func TestGoldenFuzzKillMatrix(t *testing.T) {
	got := captureStdout(t, func() error {
		return cmdFuzz([]string{"-mutant", "all", "-budget", "300", "-seed", "2"})
	})
	checkGolden(t, "fuzz-kill-matrix", got)
}

// TestGoldenFuzzQuorumKillMatrix pins the crash-tolerance fuzzing
// headline end-to-end: schedule exploration with fault axes kills every
// seeded ABD mutant within budget while the correct protocol survives,
// and the shrunk counterexamples are deterministic functions of the
// seed.
func TestGoldenFuzzQuorumKillMatrix(t *testing.T) {
	args := []string{"-backend", "quorum", "-n", "3", "-d", "8", "-u", "6",
		"-budget", "16384", "-seed", "1", "-mutant", "all"}
	got := captureStdout(t, func() error {
		return cmdFuzz(args)
	})
	checkGolden(t, "fuzz-quorum-kill-matrix", got)

	for _, par := range []string{"1", "4"} {
		out := captureStdout(t, func() error {
			return cmdFuzz(append([]string{"-parallel", par}, args...))
		})
		if out != got {
			t.Errorf("quorum fuzz output at -parallel %s differs from default:\n--- got ---\n%s\n--- want ---\n%s", par, out, got)
		}
	}
}

// TestGoldenServeDryRun pins the resolved serving configuration echo:
// classes, per-class formula ticks and the jitter budget are pure
// functions of the flags, so the JSON is byte-stable.
func TestGoldenServeDryRun(t *testing.T) {
	got := captureStdout(t, func() error {
		return cmdServe([]string{"-dry-run", "-n", "5", "-seed", "3", "-offsets", "spread"})
	})
	checkGolden(t, "serve-dry-run", got)
}

// TestGoldenLoadSim pins a load summary produced on the virtual-time
// engine — the fixed-clock mode: latencies are tick-exact, so the whole
// document (quantiles included) is a deterministic function of the
// flags.
func TestGoldenLoadSim(t *testing.T) {
	got := captureStdout(t, func() error {
		return cmdLoad([]string{"-sim", "-ops", "20", "-seed", "3", "-n", "3",
			"-mix", "enqueue=2,dequeue=1,peek=1"})
	})
	checkGolden(t, "load-sim", got)
}

// TestGoldenLoadSimQuorum pins the virtual-time summary of the quorum
// backend: -backend quorum routes the register type and the harness's
// ABD nodes, and every class is judged against the flat 4d bound.
func TestGoldenLoadSimQuorum(t *testing.T) {
	got := captureStdout(t, func() error {
		return cmdLoad([]string{"-backend", "quorum", "-sim", "-ops", "5", "-seed", "3", "-n", "3"})
	})
	checkGolden(t, "load-sim-quorum", got)
}

// TestCmdLoadErrors exercises load flag validation.
func TestCmdLoadErrors(t *testing.T) {
	if err := cmdLoad([]string{"-sim"}); err == nil {
		t.Error("-sim without -ops should error")
	}
	if err := cmdLoad([]string{"-mix", "enqueue=x", "-ops", "1"}); err == nil {
		t.Error("malformed mix should error")
	}
	if err := cmdLoad([]string{"-type", "bogus", "-ops", "1"}); err == nil {
		t.Error("unknown type should error")
	}
	if err := cmdLoad([]string{"-backend", "quorum", "-shards", "2", "-keys", "4", "-ops", "1"}); err == nil {
		t.Error("quorum with shards should error")
	}
	if err := cmdLoad([]string{"-crash", "1@1s", "-sim", "-ops", "1"}); err == nil {
		t.Error("-crash with -sim should error")
	}
	if err := cmdLoad([]string{"-crash", "bogus", "-ops", "1"}); err == nil {
		t.Error("malformed crash schedule should error")
	}
	if err := cmdLoad([]string{"-crash", "0@1s,1@1s", "-n", "3", "-ops", "1"}); err == nil {
		t.Error("majority crash schedule should error")
	}
}

// TestCmdFuzzErrors exercises fuzz flag validation.
func TestCmdFuzzErrors(t *testing.T) {
	if err := cmdFuzz([]string{"-mutant", "bogus", "-budget", "1"}); err == nil {
		t.Error("unknown mutant should error")
	}
	if err := cmdFuzz([]string{"-type", "bogus", "-budget", "1"}); err == nil {
		t.Error("unknown type should error")
	}
	if err := cmdFuzz([]string{"-strategies", "bogus", "-budget", "1"}); err == nil {
		t.Error("unknown strategy should error")
	}
	// The strong hunt's strategy order is fixed: -strategies is refused,
	// not silently ignored.
	if err := cmdFuzz([]string{"-strong", "-strategies", "random", "-n", "3", "-budget", "10"}); err == nil {
		t.Error("-strategies under -strong should error")
	}
	// A backend without seeded mutants has no kill matrix: refused up
	// front, before the control row's budget is spent.
	err := cmdFuzz([]string{"-backend", "central", "-mutant", "all", "-budget", "50"})
	if want := "harness: backend central has no seeded mutants (core, quorum have)"; err == nil || err.Error() != want {
		t.Errorf("fuzz -backend central -mutant all = %v, want %q", err, want)
	}
}

// TestCmdVerifyErrors is TestCmdFuzzErrors' twin for the model checker.
func TestCmdVerifyErrors(t *testing.T) {
	if err := cmdVerify([]string{"-mutant", "bogus"}); err == nil {
		t.Error("unknown mutant should error")
	}
	err := cmdVerify([]string{"-backend", "sequencer", "-mutant", "all"})
	if want := "harness: backend sequencer has no seeded mutants (core, quorum have)"; err == nil || err.Error() != want {
		t.Errorf("verify -backend sequencer -mutant all = %v, want %q", err, want)
	}
}

// TestKillMatrixControlGate pins the gate both matrix commands end on: a
// matrix whose control row is flagged fails the command, after printing
// it, with an error naming the violation kind; surviving mutants do not.
func TestKillMatrixControlGate(t *testing.T) {
	defer func(f func(adversary.Options) ([]adversary.KillEntry, error), v func(bmc.Config) ([]bmc.KillEntry, error)) {
		fuzzKillMatrix, verifyKillMatrix = f, v
	}(fuzzKillMatrix, verifyKillMatrix)
	control := false
	fuzzKillMatrix = func(adversary.Options) ([]adversary.KillEntry, error) {
		return []adversary.KillEntry{
			{Mutant: "correct", Killed: control, Kind: adversary.KindDiverged, Runs: 1},
			{Mutant: "mop-zero", Runs: 64}, // survived
		}, nil
	}
	verifyKillMatrix = func(bmc.Config) ([]bmc.KillEntry, error) {
		return []bmc.KillEntry{
			{Mutant: "correct", Killed: control, Kind: adversary.KindNonLinearizable, Runs: 1},
			{Mutant: "aop-no-eps", Runs: 64}, // survived
		}, nil
	}
	run := func(cmd func([]string) error) (err error) {
		captureStdout(t, func() error { err = cmd([]string{"-mutant", "all"}); return nil })
		return err
	}
	if err := run(cmdFuzz); err != nil {
		t.Errorf("fuzz: clean control, surviving mutant: %v", err)
	}
	if err := run(cmdVerify); err != nil {
		t.Errorf("verify: clean control, surviving mutant: %v", err)
	}
	control = true
	if err := run(cmdFuzz); err == nil || !strings.Contains(err.Error(), "control row") || !strings.Contains(err.Error(), adversary.KindDiverged) {
		t.Errorf("fuzz: killed control: %v", err)
	}
	if err := run(cmdVerify); err == nil || !strings.Contains(err.Error(), "control row") || !strings.Contains(err.Error(), adversary.KindNonLinearizable) {
		t.Errorf("verify: killed control: %v", err)
	}
}

// TestCmdFuzzKillMatrix runs the full kill matrix end-to-end through the
// CLI: every seeded mutant must die and the control must stay clean.
func TestCmdFuzzKillMatrix(t *testing.T) {
	got := captureStdout(t, func() error {
		return cmdFuzz([]string{"-budget", "64", "-seed", "1", "-mutant", "all"})
	})
	for _, want := range []string{
		"correct        clean",
		"aop-no-eps     killed: non-linearizable",
		"literal-drain  killed:",
		"exec-no-eps    killed:",
		"addself-zero   killed:",
		"mop-zero       killed:",
	} {
		if !hasLineWithPrefix(got, want) {
			t.Errorf("kill matrix output missing %q:\n%s", want, got)
		}
	}
}

func hasLineWithPrefix(s, prefix string) bool {
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, prefix) {
			return true
		}
	}
	return false
}

// TestGoldenTrace pins `lintime trace` end to end on the virtual-time
// engine: the per-term attribution table (whose terms must sum exactly
// to each operation's measured latency — cmdTrace errors otherwise) and
// the Chrome trace-event JSON export, both byte-stable functions of the
// flags. The JSON must also be structurally valid trace-event format.
func TestGoldenTrace(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.json")
	got := captureStdout(t, func() error {
		return cmdTrace([]string{"-n", "3", "-ops", "4", "-seed", "3", "-o", out})
	})
	checkGolden(t, "trace-core", got)

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace JSON has no events")
	}
	checkGolden(t, "trace-core-json", string(raw))

	// The quorum backend attributes too: its phase waits are pure
	// net_delay (flat 4d, no deliberate stabilization wait).
	got = captureStdout(t, func() error {
		return cmdTrace([]string{"-backend", "quorum", "-n", "3", "-ops", "3", "-seed", "5"})
	})
	checkGolden(t, "trace-quorum", got)
}

func TestCmdTraceErrors(t *testing.T) {
	if err := cmdTrace([]string{"-type", "nope"}); err == nil {
		t.Error("unknown type accepted")
	}
	if err := cmdTrace([]string{"-backend", "nope"}); err == nil {
		t.Error("unknown backend accepted")
	}
}
