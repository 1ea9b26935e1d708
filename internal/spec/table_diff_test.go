package spec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/spec"
)

// bag is a data type whose arguments cannot be map keys: add takes a
// []int, and the state is the sorted multiset of everything added.
type bag struct{}

func (bag) Name() string { return "bag" }
func (bag) Ops() []spec.OpInfo {
	return []spec.OpInfo{
		{Name: "add", Args: []spec.Value{[]int{1}, []int{2, 1}, []int{}, []int(nil)}},
		{Name: "list", Args: []spec.Value{nil}},
	}
}
func (bag) Initial() spec.State { return bagState{} }

type bagState struct{ items []int }

func (s bagState) Apply(op string, arg spec.Value) (spec.Value, spec.State) {
	if op != "add" {
		return append([]int(nil), s.items...), s
	}
	next := append(append([]int(nil), s.items...), arg.([]int)...)
	for i := 1; i < len(next); i++ {
		for j := i; j > 0 && next[j] < next[j-1]; j-- {
			next[j], next[j-1] = next[j-1], next[j]
		}
	}
	return len(next), bagState{next}
}
func (s bagState) Fingerprint() string { return fmt.Sprint("bag:", s.items) }

// TestTableMatchesApply is the Table's differential test: random walks
// over every registered type, two keyed families and a type with
// non-comparable arguments, restarting now and then from the initial
// state so cached edges are taken again. Every Step must reach the state
// Apply reaches (same fingerprint, same id as interning it) and answer a
// value ValuesEqual to Apply's. Alongside, a compiled state of a second
// Table walks the same invocations through spec.State: its Apply must
// answer what Apply answers and reach a state with Apply's fingerprint.
func TestTableMatchesApply(t *testing.T) {
	types := []spec.DataType{adt.NewKeyed(adt.NewQueue()), adt.NewKeyed(adt.NewRegister(0)), bag{}}
	for _, name := range adt.Names() {
		dt, _ := adt.Lookup(name)
		types = append(types, dt)
	}
	rng := rand.New(rand.NewSource(25))
	for _, dt := range types {
		tb := spec.NewTable(dt)
		compiled := spec.NewTable(dt).Compiled()
		if compiled.Name() != dt.Name() || len(compiled.Ops()) != len(dt.Ops()) {
			t.Fatalf("%s: compiled type is %q with %d ops", dt.Name(), compiled.Name(), len(compiled.Ops()))
		}
		ops := dt.Ops()
		id, st, view := int32(0), dt.Initial(), compiled.Initial()
		for step := 0; step < 3000; step++ {
			if rng.Intn(12) == 0 {
				id, st, view = 0, dt.Initial(), compiled.Initial()
			}
			info := ops[rng.Intn(len(ops))]
			arg := info.Args[rng.Intn(len(info.Args))]
			next, ret := tb.Step(id, tb.Kind(info.Name, arg))
			wantRet, wantNext := st.Apply(info.Name, arg)
			if got, want := tb.State(next).Fingerprint(), wantNext.Fingerprint(); got != want {
				t.Fatalf("%s step %d: %s(%v) reaches %q, Apply reaches %q", dt.Name(), step, info.Name, arg, got, want)
			}
			if tb.Intern(wantNext) != next {
				t.Fatalf("%s step %d: Step's state id differs from interning Apply's state", dt.Name(), step)
			}
			if got := tb.Value(ret); !spec.ValuesEqual(got, wantRet) {
				t.Fatalf("%s step %d: %s(%v) returns %#v, Apply returns %#v", dt.Name(), step, info.Name, arg, got, wantRet)
			}
			viewRet, viewNext := view.Apply(info.Name, arg)
			if !spec.ValuesEqual(viewRet, wantRet) {
				t.Fatalf("%s step %d: compiled %s(%v) returns %#v, Apply returns %#v", dt.Name(), step, info.Name, arg, viewRet, wantRet)
			}
			if got, want := viewNext.Fingerprint(), wantNext.Fingerprint(); got != want {
				t.Fatalf("%s step %d: compiled %s(%v) reaches %q, Apply reaches %q", dt.Name(), step, info.Name, arg, got, want)
			}
			id, st, view = next, wantNext, viewNext
		}
	}
}
