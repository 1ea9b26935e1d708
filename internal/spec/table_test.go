package spec

import (
	"fmt"
	"testing"
)

// cell is a register whose every write of a new value reaches a new state.
type cell struct{}

func (cell) Name() string { return "cell" }
func (cell) Ops() []OpInfo {
	return []OpInfo{{Name: "set", Args: []Value{1}}, {Name: "get", Args: []Value{nil}}}
}
func (cell) Initial() State { return cellState(0) }

type cellState int

func (s cellState) Apply(op string, arg Value) (Value, State) {
	if op == "set" {
		return nil, cellState(arg.(int))
	}
	return int(s), s
}
func (s cellState) Fingerprint() string { return fmt.Sprint("cell:", int(s)) }

// TestTableTrim streams searches that each write a value never seen
// before, so each adds a state, a kind and a value: Trim must drop the
// tables on the way, restart them from the initial state, and never
// change what Step answers.
func TestTableTrim(t *testing.T) {
	tb := NewTable(cell{})
	resets, prev := 0, len(tb.states)
	for i := 0; i < maxStates+maxStates/16; i++ {
		tb.Trim()
		if len(tb.states) < prev {
			resets++
			if len(tb.states) != 1 || tb.State(0).Fingerprint() != "cell:0" {
				t.Fatalf("after a reset: %d states, state 0 = %q", len(tb.states), tb.State(0).Fingerprint())
			}
		}
		v := 1000 + i
		next, _ := tb.Step(0, tb.Kind("set", v))
		_, ret := tb.Step(next, tb.Kind("get", nil))
		if got := tb.Value(ret); got != v {
			t.Fatalf("search %d: get after set(%d) = %v", i, v, got)
		}
		prev = len(tb.states)
	}
	if resets == 0 || len(tb.states) > maxStates+8 {
		t.Fatalf("tables never dropped: %d resets, %d states (cap %d)", resets, len(tb.states), maxStates)
	}
}

// TestCompiledStateAfterReset: a compiled state applies a cached edge
// without allocating, and one made before its Table was reset panics
// instead of answering for whichever state its id now names.
func TestCompiledStateAfterReset(t *testing.T) {
	tb := NewTable(cell{})
	s0 := tb.Compiled().Initial()
	_, s1 := s0.Apply("set", 1)
	if allocs := testing.AllocsPerRun(100, func() { s0.Apply("set", 1) }); allocs != 0 {
		t.Errorf("Apply over a cached edge allocates %.0f times", allocs)
	}
	tb.reset()
	if got := tb.Compiled().Initial().Fingerprint(); got != "cell:0" {
		t.Fatalf("initial state after the reset is %q", got)
	}
	for name, use := range map[string]func(){
		"Apply":       func() { s1.Apply("get", nil) },
		"Fingerprint": func() { s1.Fingerprint() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a state from before the reset did not panic", name)
				}
			}()
			use()
		}()
	}
}

type boxed struct{ V any }

// TestTableKinds: an argument that would panic as a map key gets a
// formatted identity; equal contents share a kind, different contents do
// not, and values that print alike stay apart.
func TestTableKinds(t *testing.T) {
	tb := NewTable(toyCounter{})
	for _, tc := range []struct{ a, b Value }{
		{[]int{1, 2}, []int{3}},
		{[]int{1, 2}, []int{1, 2}}, // same kinds twice
		{[]int{3}, boxed{[]int{1, 2}}},
		{boxed{[]int{4}}, boxed{[]int{4}}},
		{[]int{}, []int(nil)},
	} {
		tb.Kind("addall", tc.a)
		tb.Kind("addboxed", tc.b)
		tb.Kind("sum", nil)
	}
	// addall of [1 2], [3], boxed[4], []; addboxed of [3], [1 2], boxed[1 2],
	// boxed[4], nil slice; sum.
	if len(tb.kinds) != 10 {
		t.Errorf("distinct kinds = %d, want 10: %v", len(tb.kinds), tb.kinds)
	}
	if tb.Kind("addall", []int{1, 2}) != tb.Kind("addall", []int{1, 2}) {
		t.Error("equal slice arguments got different kinds")
	}
	for _, pair := range [][2]Value{{1, "1"}, {[]int{1}, "[]int{1}"}, {"[]int []int{1}", []int{1}}, {nil, "⊥"}, {true, "true"}} {
		if tb.Kind("op", pair[0]) == tb.Kind("op", pair[1]) {
			t.Errorf("arguments %#v and %#v share a kind", pair[0], pair[1])
		}
		if tb.InternValue(pair[0]) == tb.InternValue(pair[1]) {
			t.Errorf("values %#v and %#v share an id", pair[0], pair[1])
		}
	}
	if a, b := tb.InternValue([]int{7}), tb.InternValue([]int{7}); a != b || a < 0 {
		t.Errorf("equal slices interned to %d and %d", a, b)
	}
}
