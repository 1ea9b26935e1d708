package harness_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/adversary"
	"lintime/internal/bmc"
	"lintime/internal/classify"
	"lintime/internal/harness"
	"lintime/internal/obs"
	"lintime/internal/quorum"
	"lintime/internal/serve"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

func mustLookup(t *testing.T, name string) *harness.Backend {
	t.Helper()
	b, err := harness.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// build resolves and constructs one replica set.
func build(b *harness.Backend, p simtime.Params, dt spec.DataType, mutant string) ([]sim.Node, error) {
	mk, err := b.Builder(p, dt, mutant, nil)
	if err != nil {
		return nil, err
	}
	return mk(dt), nil
}

func mustType(t *testing.T, name string) spec.DataType {
	t.Helper()
	dt, err := adt.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

// TestBackendTable checks that the table in backend.go is the repo's only
// list of protocols: every entry is well formed, and every consumer
// resolves names — and refuses unknown ones — through it.
func TestBackendTable(t *testing.T) {
	p := simtime.DefaultParams(3)
	names := harness.Algorithms()
	want := []string{harness.AlgCore, harness.AlgCorePaper, harness.AlgCoreAllOOP,
		harness.AlgCentral, harness.AlgSequencer, harness.AlgQuorum}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Algorithms() = %v, want %v (entry order is output order)", names, want)
	}
	if def := mustLookup(t, ""); def.Name != harness.AlgCore {
		t.Errorf(`Lookup("") = %s, want the core entry`, def.Name)
	}

	seen := map[string]bool{}
	for _, name := range names {
		b := mustLookup(t, name)
		if b.Name != name || seen[name] {
			t.Errorf("entry %q: name %q duplicated or mismatched", name, b.Name)
		}
		seen[name] = true
		dt := mustType(t, b.DefaultType)
		nodes, err := build(b, p, dt, "")
		if err != nil || len(nodes) != p.N {
			t.Errorf("%s: Build = %d nodes, %v; want %d", name, len(nodes), err, p.N)
		}
		if fps := b.Fingerprints(nodes); b.Converges && len(fps) != p.N {
			t.Errorf("%s: %d fingerprints, want %d", name, len(fps), p.N)
		}
		// The model checker's plan axis starts first ops at these.
		if b.Starts == nil || len(b.Starts(p)) == 0 {
			t.Errorf("%s: declares no first-op start instants", name)
		}
		for _, alias := range []string{"", "none"} {
			if _, err := b.Builder(p, dt, alias, nil); err != nil {
				t.Errorf("%s: mutant %q should select the correct protocol: %v", name, alias, err)
			}
		}
		for _, m := range b.Mutants {
			if m.Name == "" || m.Desc == "" {
				t.Errorf("%s: mutant %+v lacks a name or a description", name, m)
			}
			if _, err := build(b, p, dt, m.Name); err != nil {
				t.Errorf("%s: mutant %s does not resolve: %v", name, m.Name, err)
			}
		}
		_, err = build(b, p, dt, "no-such-mutant")
		if len(b.Mutants) == 0 {
			// Refused with the one error naming the backends that have mutants.
			if err == nil || !strings.Contains(err.Error(), "core, quorum have") {
				t.Errorf("%s: mutant on a mutant-free backend: %v", name, err)
			}
			if _, err := b.MatrixRows(); err == nil || !strings.Contains(err.Error(), "core, quorum have") {
				t.Errorf("%s: MatrixRows = %v, want the no-mutants error", name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), strings.Join(b.MutantNames(), ", ")) {
			t.Errorf("%s: unknown mutant error %v does not list the backend's own mutants", name, err)
		}
		rows, err := b.MatrixRows()
		if err != nil || len(rows) != len(b.Mutants)+1 || rows[0].Name != "" || rows[0].Desc != b.Desc+" (control)" {
			t.Errorf("%s: MatrixRows = %+v, %v; want the control row first", name, rows, err)
		}
	}

	// Kill-matrix row order is pinned by three goldens.
	core, q := mustLookup(t, harness.AlgCore), mustLookup(t, harness.AlgQuorum)
	if got, want := core.MutantNames(), []string{"aop-no-eps", "literal-drain", "exec-no-eps", "addself-zero", "mop-zero"}; !reflect.DeepEqual(got, want) {
		t.Errorf("core mutants = %v, want %v", got, want)
	}
	if got, want := q.MutantNames(), []string{"crash-threshold", "skip-writeback", "stale-tiebreak", "sub-majority-read"}; !reflect.DeepEqual(got, want) {
		t.Errorf("quorum mutants = %v, want %v", got, want)
	}
	// A mutant of another backend is refused.
	if _, err := build(core, p, mustType(t, "queue"), "skip-writeback"); err == nil {
		t.Error("core accepted a quorum mutant")
	}
	if _, err := build(q, p, mustType(t, "register"), "mop-zero"); err == nil {
		t.Error("quorum accepted a core mutant")
	}
	if _, err := build(q, p, mustType(t, "queue"), ""); err == nil {
		t.Error("quorum accepted a non-register type")
	}

	// Bounds: d−X+ε / X+ε / d+ε for core, 4d for quorum, nil elsewhere;
	// the serving layer's exported formulas are the same functions.
	for class, want := range map[classify.Class]simtime.Duration{
		classify.PureAccessor: p.D - p.X + p.Epsilon,
		classify.PureMutator:  p.X + p.Epsilon,
		classify.Mixed:        p.D + p.Epsilon,
	} {
		if got := core.Bound(p, class); got != want || got != serve.FormulaTicks(p, class) {
			t.Errorf("core bound(%v) = %v, want %v = serve.FormulaTicks %v", class, got, want, serve.FormulaTicks(p, class))
		}
		if got := q.Bound(p, class); got != 4*p.D || got != serve.QuorumFormulaTicks(p) {
			t.Errorf("quorum bound(%v) = %v, want 4d = %v", class, got, 4*p.D)
		}
	}
	for _, name := range names {
		if b := mustLookup(t, name); (b.Bound != nil) != (name == harness.AlgCore || name == harness.AlgQuorum) {
			t.Errorf("%s: declares a bound = %v; only core and quorum are servable", name, b.Bound != nil)
		}
	}
	if !q.Faults || !q.ClockFree || core.Faults || core.ClockFree {
		t.Error("fault tolerance / clock use mis-declared for core or quorum")
	}

	// core-paper and core+aop-no-eps are one set of timers: their replicas
	// are identical, and differ from the corrected algorithm's.
	queue := mustType(t, "queue")
	paper, _ := build(mustLookup(t, harness.AlgCorePaper), p, queue, "")
	noEps, _ := build(core, p, queue, "aop-no-eps")
	correct, _ := build(core, p, queue, "")
	if !reflect.DeepEqual(paper, noEps) {
		t.Error("core-paper and core+aop-no-eps build different replicas")
	}
	if reflect.DeepEqual(paper, correct) {
		t.Error("core-paper builds the corrected algorithm")
	}
	// Resolving a mutant must not leak into later builds of the control.
	if again, _ := build(core, p, queue, ""); !reflect.DeepEqual(again, correct) {
		t.Error("building a mutant changed what the control builds")
	}

	// Every consumer refuses an unknown name with the table's own list.
	list := strings.Join(names, ", ")
	sched := adversary.Schedule{Offsets: make([]simtime.Duration, p.N), Plans: make([][]adversary.PlannedOp, p.N)}
	rejections := map[string]func() error{
		"harness.Run": func() error {
			_, err := harness.Run(harness.Config{Params: p, TypeName: "queue", Algorithm: "bogus"}, harness.Workload{OpsPerProc: 1})
			return err
		},
		"adversary.Runner.Run": func() error {
			r := &adversary.Runner{Params: p, DT: queue, Target: adversary.Target{Algorithm: "bogus"}}
			_, err := r.Run(sched)
			return err
		},
		"adversary.Fuzz": func() error {
			_, err := adversary.Fuzz(adversary.Options{Params: p, DT: queue, Target: adversary.Target{Algorithm: "bogus"}, Budget: 1})
			return err
		},
		"bmc.NewSpace": func() error {
			_, err := bmc.NewSpace(bmc.Config{Params: p, DT: queue, Target: adversary.Target{Algorithm: "bogus"}})
			return err
		},
		"serve.New": func() error {
			_, err := serve.New(serve.Config{Params: p, Backend: "bogus"})
			return err
		},
	}
	for consumer, try := range rejections {
		if err := try(); err == nil || !strings.Contains(err.Error(), list) {
			t.Errorf("%s: unknown backend error %v does not list %q", consumer, err, list)
		}
	}
	// serve refuses a backend without a bound.
	if _, err := serve.New(serve.Config{Params: p, Backend: harness.AlgCentral}); err == nil {
		t.Error("serve.New(central) succeeded; central declares no bound")
	}
}

// TestQuorumMutantConfigs pins how each quorum mutant weakens the
// protocol configuration, and that the control's is untouched.
func TestQuorumMutantConfigs(t *testing.T) {
	p := simtime.DefaultParams(2)
	base := quorum.DefaultConfig(p)
	weakened := map[string]quorum.Config{"": base, "none": base}
	c := base
	c.ReadQuorum, c.WriteQuorum = 1, 1
	weakened["crash-threshold"] = c
	c = base
	c.SkipWriteBack = true
	weakened["skip-writeback"] = c
	c = base
	c.TSOnlyTieBreak = true
	weakened["stale-tiebreak"] = c
	c = base
	c.ReadQuorum = 1
	weakened["sub-majority-read"] = c
	for name, want := range weakened {
		if got, err := harness.QuorumConfig(p, name); err != nil || got != want {
			t.Errorf("QuorumConfig(%q) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	if len(weakened) != len(mustLookup(t, harness.AlgQuorum).Mutants)+2 {
		t.Error("a quorum mutant's configuration is not pinned here")
	}
	if _, err := harness.QuorumConfig(p, "bogus"); err == nil {
		t.Error("QuorumConfig(bogus) succeeded")
	}
}

// TestKillMatrix pins the row loop both kill matrices share, with a fake
// hunt: the control comes first and is named "correct", every row's
// description comes from the backend table whatever the hunt returned,
// the counter counts kills only, and a hunt error ends the matrix.
func TestKillMatrix(t *testing.T) {
	core := mustLookup(t, harness.AlgCore)
	var hunted []string
	var kills obs.Counter
	// The fake kills every other row, starting with the first mutant, and
	// fills the fields KillMatrix owns with junk it must overwrite.
	hunt := func(m harness.Mutant) (harness.KillEntry[int], error) {
		hunted = append(hunted, m.Name)
		killed := len(hunted)%2 == 0
		return harness.KillEntry[int]{Mutant: "junk", Desc: "junk", Killed: killed, Runs: len(hunted), Witness: 10 * len(hunted)}, nil
	}
	entries, err := harness.KillMatrix(harness.AlgCore, &kills, hunt)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(core.Mutants)+1 || len(hunted) != len(entries) {
		t.Fatalf("%d rows from %d hunts, want %d", len(entries), len(hunted), len(core.Mutants)+1)
	}
	if c := entries[0]; c.Mutant != "correct" || c.Desc != core.Desc+" (control)" || hunted[0] != "" {
		t.Errorf("control row = %q %q (hunted %q), want \"correct\" %q (hunted the zero Mutant)",
			c.Mutant, c.Desc, hunted[0], core.Desc+" (control)")
	}
	wantKills := 0
	for i, m := range core.Mutants {
		e := entries[i+1]
		if e.Mutant != m.Name || e.Desc != m.Desc || hunted[i+1] != m.Name {
			t.Errorf("row %d = %q %q (hunted %q), want %q %q", i+1, e.Mutant, e.Desc, hunted[i+1], m.Name, m.Desc)
		}
		if e.Runs != i+2 || e.Witness != 10*(i+2) {
			t.Errorf("row %d: hunt's verdict not kept: runs %d witness %d", i+1, e.Runs, e.Witness)
		}
		if e.Killed {
			wantKills++
		}
	}
	if got := kills.Value(); got != int64(wantKills) || wantKills == 0 {
		t.Errorf("counter = %d after %d kills", got, wantKills)
	}

	// A hunt error stops the loop at that row and is returned.
	boom := errors.New("boom")
	hunted = nil
	_, err = harness.KillMatrix(harness.AlgCore, &kills, func(m harness.Mutant) (harness.KillEntry[int], error) {
		hunted = append(hunted, m.Name)
		if len(hunted) == 2 {
			return harness.KillEntry[int]{}, boom
		}
		return harness.KillEntry[int]{}, nil
	})
	if !errors.Is(err, boom) || len(hunted) != 2 {
		t.Errorf("hunt error: err %v after %d hunts, want boom after 2", err, len(hunted))
	}

	// A backend without seeded mutants has no matrix; nothing is hunted.
	hunted = nil
	_, err = harness.KillMatrix(harness.AlgSequencer, &kills, hunt)
	if want := "harness: backend sequencer has no seeded mutants (core, quorum have)"; err == nil || err.Error() != want || hunted != nil {
		t.Errorf("sequencer matrix = %v after %d hunts, want %q before any", err, len(hunted), want)
	}
}
