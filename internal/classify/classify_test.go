package classify

import (
	"reflect"
	"sync"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/spec"
)

// explorerFor caches explorations per data type to keep the test suite
// fast: the search procedures all share one exploration.
var explorerCache = map[string]*Explorer{}

func explorerFor(t *testing.T, name string) *Explorer {
	t.Helper()
	if e, ok := explorerCache[name]; ok {
		return e
	}
	dt, err := adt.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExplorer(dt, DefaultConfig())
	explorerCache[name] = e
	return e
}

func TestExplorerReachesStates(t *testing.T) {
	e := explorerFor(t, "register")
	if len(e.States()) < 4 {
		t.Errorf("register exploration found %d states, want ≥ 4 (one per value)", len(e.States()))
	}
	// Every recorded ρ must be legal and reach its state.
	for _, rs := range e.States() {
		final, bad := spec.ReplayLegal(e.DataType().Initial(), rs.Rho)
		if bad != -1 {
			t.Fatalf("witness ρ illegal at %d: %s", bad, spec.FormatSeq(rs.Rho))
		}
		if final.Fingerprint() != rs.State.Fingerprint() {
			t.Fatalf("witness ρ reaches %q, recorded %q", final.Fingerprint(), rs.State.Fingerprint())
		}
	}
}

func TestExplorerDeduplicates(t *testing.T) {
	e := explorerFor(t, "register")
	seen := map[string]bool{}
	for _, rs := range e.States() {
		fp := rs.State.Fingerprint()
		if seen[fp] {
			t.Fatalf("duplicate state %q", fp)
		}
		seen[fp] = true
	}
}

func TestExplorerRespectsMaxStates(t *testing.T) {
	dt, _ := adt.Lookup("queue")
	e := NewExplorer(dt, Config{MaxStates: 10, MaxDepth: 10})
	if len(e.States()) > 10 {
		t.Errorf("explored %d states, cap was 10", len(e.States()))
	}
}

// wantClass captures the expected classification of every operation of
// every data type, per the paper's Tables 1-4 and Section 5.
var wantClass = map[string]map[string]Class{
	"register":    {"read": PureAccessor, "write": PureMutator},
	"rmwregister": {"read": PureAccessor, "write": PureMutator, "rmw": Mixed},
	"queue":       {"enqueue": PureMutator, "dequeue": Mixed, "peek": PureAccessor},
	"stack":       {"push": PureMutator, "pop": Mixed, "peek": PureAccessor},
	"tree":        {"insert": PureMutator, "delete": PureMutator, "depth": PureAccessor},
	"treefw":      {"insert": PureMutator, "delete": PureMutator, "depth": PureAccessor},
	"set":         {"add": PureMutator, "remove": PureMutator, "contains": PureAccessor, "size": PureAccessor},
	"counter":     {"inc": PureMutator, "addn": PureMutator, "read": PureAccessor},
	"dict":        {"put": PureMutator, "del": PureMutator, "get": PureAccessor, "swap": Mixed, "len": PureAccessor},
	"log":         {"append": PureMutator, "at": PureAccessor, "len": PureAccessor, "last": PureAccessor},
	"maxregister": {"writemax": PureMutator, "readmax": PureAccessor},
	"pqueue":      {"insert": PureMutator, "extractmin": Mixed, "min": PureAccessor},
	"deque": {"pushfront": PureMutator, "pushback": PureMutator, "popfront": Mixed,
		"popback": Mixed, "front": PureAccessor, "back": PureAccessor},
	"bank": {"deposit": PureMutator, "withdraw": Mixed, "balance": PureAccessor},
}

func TestClassification(t *testing.T) {
	for typeName, ops := range wantClass {
		t.Run(typeName, func(t *testing.T) {
			e := explorerFor(t, typeName)
			rep := e.Report()
			for opName, want := range ops {
				got, ok := rep.Find(opName)
				if !ok {
					t.Errorf("no report for op %s", opName)
					continue
				}
				if got.Class != want {
					t.Errorf("%s.%s classified %v, want %v", typeName, opName, got.Class, want)
				}
			}
		})
	}
}

func TestRegisterWriteIsOverwriter(t *testing.T) {
	e := explorerFor(t, "register")
	if ok, w := e.IsOverwriter("write"); !ok {
		t.Errorf("write should be an overwriter: %v", w)
	}
}

func TestQueueEnqueueIsNotOverwriter(t *testing.T) {
	e := explorerFor(t, "queue")
	if ok, _ := e.IsOverwriter("enqueue"); ok {
		t.Error("enqueue should not be an overwriter (earlier items remain visible)")
	}
}

func TestTransposability(t *testing.T) {
	cases := []struct {
		typeName, op string
		want         bool
	}{
		{"register", "write", true},
		{"queue", "enqueue", true},
		{"stack", "push", true},
		{"tree", "insert", true},
		{"treefw", "insert", true},
		{"set", "add", true},
		{"counter", "inc", true},
		{"log", "append", true},
		{"maxregister", "writemax", true},
		// Dequeue and pop are *vacuously* transposable: by Determinism at
		// most one instance (⊥, ret) is legal after any given ρ, so the
		// definition's "two distinct instances both legal after ρ" premise
		// never fires. They still are not last-sensitive (no k ≥ 2
		// distinct instances exist), so Theorem 3 does not apply to them —
		// Theorem 4 (pair-free) gives their bound instead.
		{"queue", "dequeue", true},
		{"stack", "pop", true},
		// rmw has genuinely distinct instances (different δ) whose
		// recorded returns go stale after one another: not transposable.
		{"rmwregister", "rmw", false},
	}
	for _, c := range cases {
		e := explorerFor(t, c.typeName)
		got, w := e.IsTransposable(c.op)
		if got != c.want {
			t.Errorf("%s.%s transposable = %v, want %v (%v)", c.typeName, c.op, got, c.want, w)
		}
	}
}

func TestLastSensitivity(t *testing.T) {
	cases := []struct {
		typeName, op string
		minK         int // 0 means must NOT be last-sensitive at all
	}{
		{"register", "write", 4},       // k distinct values => k-last-sensitive
		{"queue", "enqueue", 4},        // tail order fully observable
		{"stack", "push", 4},           // top order fully observable
		{"log", "append", 4},           // log order fully observable
		{"tree", "insert", 3},          // move semantics: last insert sets parent
		{"treefw", "insert", 2},        // first-wins: only k=2 order sensitivity
		{"dict", "put", 2},             // same-key puts
		{"set", "add", 0},              // commutative: Theorem 3 does not apply
		{"counter", "inc", 0},          // single distinct instance, commutative
		{"maxregister", "writemax", 0}, // commutative, idempotent
		{"pqueue", "insert", 0},        // multiset insert is commutative
		{"bank", "deposit", 0},         // deposits commute
		{"deque", "pushfront", 4},      // last push is the observable front
		{"deque", "pushback", 4},       // last push is the observable back
	}
	for _, c := range cases {
		e := explorerFor(t, c.typeName)
		got := e.MaxLastSensitiveK(c.op, MaxKSearched)
		if c.minK == 0 {
			if got != 0 {
				t.Errorf("%s.%s should not be last-sensitive, got k=%d", c.typeName, c.op, got)
			}
			continue
		}
		if got < c.minK {
			t.Errorf("%s.%s last-sensitive k = %d, want ≥ %d", c.typeName, c.op, got, c.minK)
		}
	}
}

func TestLastSensitiveRejectsK1(t *testing.T) {
	e := explorerFor(t, "register")
	if ok, _ := e.IsLastSensitive("write", 1); ok {
		t.Error("k=1 must be rejected")
	}
}

func TestPairFreeness(t *testing.T) {
	cases := []struct {
		typeName, op string
		want         bool
	}{
		{"rmwregister", "rmw", true}, // Corollary 2
		{"queue", "dequeue", true},   // Corollary 2
		{"stack", "pop", true},       // Corollary 2
		{"pqueue", "extractmin", true},
		{"deque", "popfront", true},
		{"deque", "popback", true},
		{"bank", "withdraw", true}, // double-spend protection
		{"bank", "deposit", false},
		{"register", "write", false},
		{"register", "read", false},
		{"queue", "enqueue", false},
		{"queue", "peek", false},
		// swap({a,v}) returning "absent" cannot follow any swap on key a:
		// pair-free with op1 = op2, like rmw.
		{"dict", "swap", true},
	}
	for _, c := range cases {
		e := explorerFor(t, c.typeName)
		got, w := e.IsPairFree(c.op)
		if got != c.want {
			t.Errorf("%s.%s pair-free = %v, want %v (%v)", c.typeName, c.op, got, c.want, w)
		}
	}
}

func TestPairFreeImpliesMixed(t *testing.T) {
	// Lemma 3: every pair-free operation is both an accessor and a
	// mutator. Verify over all types and ops.
	for _, typeName := range adt.Names() {
		e := explorerFor(t, typeName)
		for _, op := range e.DataType().Ops() {
			pf, _ := e.IsPairFree(op.Name)
			if !pf {
				continue
			}
			mut, _ := e.IsMutator(op.Name)
			acc, _ := e.IsAccessor(op.Name)
			if !mut || !acc {
				t.Errorf("%s.%s pair-free but mutator=%v accessor=%v (violates Lemma 3)",
					typeName, op.Name, mut, acc)
			}
		}
	}
}

func TestTheorem5ApplicableQueue(t *testing.T) {
	// The paper's example: (enqueue, peek) on a queue satisfies the
	// Theorem 5 hypotheses.
	e := explorerFor(t, "queue")
	w, ok := e.Theorem5Applicable("enqueue", "peek")
	if !ok {
		t.Fatal("(enqueue, peek) should satisfy Theorem 5 hypotheses")
	}
	// Validate the discriminators against the definitions.
	dt := e.DataType()
	s := spec.Replay(dt.Initial(), w.Rho)
	_, after0 := s.Apply(w.Op0.Op, w.Op0.Arg)
	_, after1 := s.Apply(w.Op1.Op, w.Op1.Arg)
	_, after10 := after1.Apply(w.Op0.Op, w.Op0.Arg)
	r0, _ := after0.Apply(w.Disc0.A.Op, w.Disc0.A.Arg)
	r10, _ := after10.Apply(w.Disc0.B.Op, w.Disc0.B.Arg)
	if !spec.ValuesEqual(r0, w.Disc0.A.Ret) || !spec.ValuesEqual(r10, w.Disc0.B.Ret) {
		t.Error("Disc0 instances are not legal after their sequences")
	}
	if spec.ValuesEqual(w.Disc0.A.Ret, w.Disc0.B.Ret) {
		t.Error("Disc0 return values must differ")
	}
	_ = after1
}

func TestTheorem5NotApplicableStack(t *testing.T) {
	// §4.3: "this does not hold for stacks, because ... a peek is solely
	// dependent on the last push."
	e := explorerFor(t, "stack")
	if _, ok := e.Theorem5Applicable("push", "peek"); ok {
		t.Error("(push, peek) on a stack must NOT satisfy Theorem 5 hypotheses")
	}
}

func TestTheorem5ApplicableTreeFW(t *testing.T) {
	// With first-wins insert, (insert, depth) satisfies Theorem 5.
	e := explorerFor(t, "treefw")
	if _, ok := e.Theorem5Applicable("insert", "depth"); !ok {
		t.Error("(insert, depth) on treefw should satisfy Theorem 5 hypotheses")
	}
}

func TestTheorem5RequiresPureAccessor(t *testing.T) {
	e := explorerFor(t, "queue")
	if _, ok := e.Theorem5Applicable("enqueue", "dequeue"); ok {
		t.Error("dequeue is not a pure accessor; Theorem 5 must not apply")
	}
}

func TestTheorem5RequiresDistinctInstances(t *testing.T) {
	// dequeue never has two distinct instances legal after the same ρ, so
	// the op0 ≠ op1 requirement cannot be met.
	e := explorerFor(t, "queue")
	if _, ok := e.Theorem5Applicable("dequeue", "peek"); ok {
		t.Error("dequeue has no distinct instance pairs; Theorem 5 must not apply")
	}
}

func TestClassString(t *testing.T) {
	if PureAccessor.String() != "AOP" || PureMutator.String() != "MOP" || Mixed.String() != "OOP" {
		t.Error("class names wrong")
	}
	if Class(99).String() != "Class(99)" {
		t.Error("unknown class should format numerically")
	}
}

func TestReportClassesAndString(t *testing.T) {
	e := explorerFor(t, "register")
	rep := e.Report()
	classes := rep.Classes()
	if classes["read"] != PureAccessor || classes["write"] != PureMutator {
		t.Errorf("Classes() = %v", classes)
	}
	if rep.String() == "" {
		t.Error("report string empty")
	}
	if _, ok := rep.Find("nonexistent"); ok {
		t.Error("Find(nonexistent) should fail")
	}
}

func TestPermutationsAndCombinations(t *testing.T) {
	if got := len(permutations(3)); got != 6 {
		t.Errorf("permutations(3) has %d entries, want 6", got)
	}
	if got := len(permutations(0)); got != 1 {
		t.Errorf("permutations(0) has %d entries, want 1", got)
	}
	if got := len(combinations(5, 2)); got != 10 {
		t.Errorf("combinations(5,2) has %d entries, want 10", got)
	}
	if got := len(combinations(4, 4)); got != 1 {
		t.Errorf("combinations(4,4) has %d entries, want 1", got)
	}
	// Permutations must all be distinct.
	seen := map[string]bool{}
	for _, p := range permutations(4) {
		key := ""
		for _, v := range p {
			key += string(rune('0' + v))
		}
		if seen[key] {
			t.Fatalf("duplicate permutation %s", key)
		}
		seen[key] = true
	}
}

func TestWitnessString(t *testing.T) {
	w := Witness{Note: "test"}
	if w.String() == "" {
		t.Error("witness string empty")
	}
}

func TestMutatorWitnessesAreValid(t *testing.T) {
	// For every op classified as mutator, the witness must satisfy the
	// definition: ρ.mop legal and ρ ≢ ρ.mop.
	for _, typeName := range adt.Names() {
		e := explorerFor(t, typeName)
		dt := e.DataType()
		for _, op := range dt.Ops() {
			ok, w := e.IsMutator(op.Name)
			if !ok {
				continue
			}
			seq := append(append([]spec.Instance{}, w.Rho...), w.Instances...)
			if !spec.Legal(dt, seq) {
				t.Errorf("%s.%s mutator witness illegal: %v", typeName, op.Name, w)
				continue
			}
			if spec.Equivalent(dt, w.Rho, seq) {
				t.Errorf("%s.%s mutator witness does not change state: %v", typeName, op.Name, w)
			}
		}
	}
}

// TestForSharesOneExploration: concurrent callers of For get one Shared
// per type name, whose report and Theorem 5 verdicts are a fresh
// Explorer's.
func TestForSharesOneExploration(t *testing.T) {
	dt := adt.NewQueue()
	fresh := NewExplorer(dt, DefaultConfig())
	wantRep := fresh.Report()
	wantW, wantOK := fresh.Theorem5Applicable(adt.OpEnqueue, adt.OpPeek)
	got := make([]*Shared, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = For(adt.NewQueue())
			if w, ok := got[i].Theorem5Applicable(adt.OpEnqueue, adt.OpPeek); ok != wantOK || !reflect.DeepEqual(w, wantW) {
				t.Errorf("shared Theorem5Applicable = %v %v, fresh %v %v", w, ok, wantW, wantOK)
			}
		}()
	}
	wg.Wait()
	for _, s := range got {
		if s != got[0] {
			t.Fatal("For made two explorations of one type")
		}
	}
	if !reflect.DeepEqual(got[0].Report(), wantRep) || !reflect.DeepEqual(got[0].Classes(), wantRep.Classes()) {
		t.Errorf("shared report differs from a fresh exploration's")
	}
}
