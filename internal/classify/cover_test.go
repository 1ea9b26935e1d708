package classify

import (
	"fmt"
	"strings"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/spec"
)

// TestClassifyWrapper pins the one-shot Classify entry point against the
// incremental Explorer path used everywhere else.
func TestClassifyWrapper(t *testing.T) {
	rep := Classify(adt.NewQueue(), DefaultConfig())
	if rep.Type != "queue" {
		t.Fatalf("Classify report type %q, want queue", rep.Type)
	}
	classes := map[string]Class{}
	for _, op := range rep.Ops {
		classes[op.Op] = op.Class
	}
	if classes[adt.OpEnqueue] != PureMutator || classes[adt.OpPeek] != PureAccessor || classes[adt.OpDequeue] != Mixed {
		t.Errorf("queue classification wrong: %v", classes)
	}
}

// TestDiscriminatorString pins the rendering used in witness dumps.
func TestDiscriminatorString(t *testing.T) {
	d := Discriminator{
		A: spec.Instance{Op: adt.OpPeek, Arg: nil, Ret: 1},
		B: spec.Instance{Op: adt.OpPeek, Arg: nil, Ret: 2},
	}
	if got, want := d.String(), "(peek(⊥, 1) | peek(⊥, 2))"; got != want {
		t.Errorf("Discriminator.String() = %q, want %q", got, want)
	}
}

// TestIsPureMutator pins the pure-mutator predicate on the queue's three
// operations — the partition Algorithm 1's timer selection depends on.
func TestIsPureMutator(t *testing.T) {
	e := explorerFor(t, "queue")
	if !e.IsPureMutator(adt.OpEnqueue) {
		t.Error("enqueue should be a pure mutator")
	}
	if e.IsPureMutator(adt.OpPeek) {
		t.Error("peek is a pure accessor, not a pure mutator")
	}
	if e.IsPureMutator(adt.OpDequeue) {
		t.Error("dequeue is mixed, not a pure mutator")
	}
}

// TestUnknownOperationNames pins the defensive branches for operation
// names outside the data type: no panic, just a negative answer.
func TestUnknownOperationNames(t *testing.T) {
	e := explorerFor(t, "queue")
	s := e.DataType().Initial()
	if _, ok := e.FindDiscriminator("nosuch", s, s); ok {
		t.Error("FindDiscriminator found a discriminator in a nonexistent op")
	}
	if insts := e.instancesAt(0, "nosuch"); insts != nil {
		t.Errorf("instancesAt for a nonexistent op = %v, want nil", insts)
	}
}

// TestIsPairFreeNoWitness pins the negative verdict: a pure mutator like
// enqueue commutes with itself in the legality sense (any enqueue may
// follow any other), so the full pair search must come up empty.
func TestIsPairFreeNoWitness(t *testing.T) {
	e := explorerFor(t, "queue")
	ok, w := e.IsPairFree(adt.OpEnqueue)
	if ok {
		t.Fatalf("enqueue reported pair-free: %+v", w)
	}
	if !strings.Contains(w.Note, "no pair-free witness") {
		t.Errorf("negative witness note %q", w.Note)
	}
}

// TestTheorem5NotApplicable pins the three ways the Theorem 5 search can
// fail: the operation is not transposable (dequeue), the accessor is not
// pure (enqueue), or — for (insert, min) on a priority queue — every
// candidate pair discriminates in one direction only: min detects op1
// slipping below op0's view only if op1 < op0, and the symmetric
// discriminator needs op0 < op1, so no pair satisfies both.
func TestTheorem5NotApplicable(t *testing.T) {
	q := explorerFor(t, "queue")
	if _, ok := q.Theorem5Applicable(adt.OpDequeue, adt.OpPeek); ok {
		t.Error("Theorem 5 should not apply to the non-transposable dequeue")
	}
	if _, ok := q.Theorem5Applicable(adt.OpEnqueue, adt.OpEnqueue); ok {
		t.Error("Theorem 5 should not apply with a mutator in the accessor slot")
	}
	pq := explorerFor(t, "pqueue")
	if w, ok := pq.Theorem5Applicable(adt.OpPQInsert, adt.OpPQMin); ok {
		t.Errorf("Theorem 5 should not apply to (insert, min): %+v", w)
	}
}

// modState counts operations: tick(k) answers count mod k and always
// advances the count by one. tick(1) is response-blind (anything mod 1 is
// 0) while tick(2) observes the parity the other instance flips — an
// asymmetric pair: ρ.tick(1).tick(2) is illegal but ρ.tick(2).tick(1)
// stays legal. The argument sample repeats 1 so instance deduplication is
// exercised too.
type modState int

func (s modState) Apply(op string, arg spec.Value) (spec.Value, spec.State) {
	return int(s) % arg.(int), s + 1
}
func (s modState) Fingerprint() string { return fmt.Sprintf("mod:%d", int(s)) }

type modDT struct{}

func (modDT) Name() string { return "modcount" }
func (modDT) Ops() []spec.OpInfo {
	return []spec.OpInfo{{Name: "tick", Args: []spec.Value{1, 1, 2}}}
}
func (modDT) Initial() spec.State { return modState(0) }

// TestIsPairFreeAsymmetricPair drives the pair search through the
// one-direction-legal case real ADTs never reach: at count 0,
// tick(1).tick(2) is illegal (parity flipped) while tick(2).tick(1) is
// still legal, so the search must keep going — and then find the genuine
// witness tick(2).tick(2).
func TestIsPairFreeAsymmetricPair(t *testing.T) {
	e := NewExplorer(modDT{}, DefaultConfig())
	if insts := e.distinctInstancesAt(0, "tick"); len(insts) != 2 {
		t.Fatalf("distinct instances at count 0 = %v, want the duplicated tick(1) collapsed", insts)
	}
	ok, w := e.IsPairFree("tick")
	if !ok {
		t.Fatalf("tick should be pair-free: %s", w.Note)
	}
	if len(w.Instances) != 2 {
		t.Fatalf("pair-free witness %+v, want two instances", w)
	}
}

// TestFigure11Regions pins every region of the computed Figure 11,
// including the two fall-through rows (plain mutators and plain mixed
// operations) that carry no known lower bound.
func TestFigure11Regions(t *testing.T) {
	out := Figure11([]Report{{Type: "toy", Ops: []OpReport{
		{Op: "read", Class: PureAccessor},
		{Op: "mix", Class: Mixed, PairFree: true},
		{Op: "append", Class: PureMutator, LastSensitiveK: 3},
		{Op: "add", Class: PureMutator},
		{Op: "swap", Class: Mixed},
	}}})
	for _, want := range []string{
		"toy.read", "toy.mix", "toy.append (k≥3)", "toy.add", "toy.swap",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 11 missing %q:\n%s", want, out)
		}
	}
}
