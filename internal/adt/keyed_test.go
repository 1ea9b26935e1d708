package adt

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"lintime/internal/spec"
)

// refKeyedState is the map-based keyed state the copy-on-write slice
// replaced, kept as the reference the slice must match step for step:
// an immutable map key → base state, copied whole on every mutation, with
// objects back at the base initial state elided.
type refKeyedState struct {
	dt   *Keyed
	objs map[string]spec.State
}

func (s refKeyedState) Apply(op string, arg spec.Value) (spec.Value, spec.State) {
	key, innerArg, ok := SplitKeyArg(arg)
	if !ok {
		return errValue(op, arg), s
	}
	obj, exists := s.objs[key]
	if !exists {
		obj = s.dt.inner.Initial()
	}
	ret, next := obj.Apply(op, innerArg)
	nextFP := next.Fingerprint()
	if exists {
		if nextFP == obj.Fingerprint() {
			return ret, s
		}
	} else if nextFP == s.dt.initialFP {
		return ret, s
	}
	objs := make(map[string]spec.State, len(s.objs)+1)
	for k, v := range s.objs {
		objs[k] = v
	}
	if nextFP == s.dt.initialFP {
		delete(objs, key)
	} else {
		objs[key] = next
	}
	return ret, refKeyedState{dt: s.dt, objs: objs}
}

func (s refKeyedState) Fingerprint() string {
	keys := make([]string, 0, len(s.objs))
	for k := range s.objs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := append(make([]byte, 0, 64), "keyed{"...)
	for i, k := range keys {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = append(strconv.AppendQuote(buf, k), '=')
		buf = append(buf, s.objs[k].Fingerprint()...)
	}
	return string(append(buf, '}'))
}

// TestKeyedMatchesMapReference drives seeded random op sequences over
// three keys through the copy-on-write state and the map reference side
// by side: every step must return the same value and fingerprint, leave
// the receiver's fingerprint unchanged, and store no object at the base
// initial state.
func TestKeyedMatchesMapReference(t *testing.T) {
	keys := []string{"a", "b", `c"`}
	for _, base := range []spec.DataType{NewQueue(), NewStack()} {
		k := NewKeyed(base)
		ops := base.Ops()
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := k.Initial(), spec.State(refKeyedState{dt: k})
			for step := 0; step < 200; step++ {
				op := ops[rng.Intn(len(ops))]
				arg, err := KeyArg(keys[rng.Intn(len(keys))], op.Args[rng.Intn(len(op.Args))])
				if err != nil {
					t.Fatal(err)
				}
				before := got.Fingerprint()
				gotRet, gotNext := got.Apply(op.Name, arg)
				wantRet, wantNext := want.Apply(op.Name, arg)
				if fp := got.Fingerprint(); fp != before {
					t.Fatalf("%s seed %d step %d: %s(%v) mutated its receiver: %q -> %q",
						k.Name(), seed, step, op.Name, arg, before, fp)
				}
				got, want = gotNext, wantNext
				if !spec.ValuesEqual(gotRet, wantRet) || got.Fingerprint() != want.Fingerprint() {
					t.Fatalf("%s seed %d step %d: %s(%v) = (%v, %q), reference (%v, %q)",
						k.Name(), seed, step, op.Name, arg, gotRet, got.Fingerprint(), wantRet, want.Fingerprint())
				}
				for _, o := range got.(*keyedState).objs {
					if fp := o.st.Fingerprint(); fp == k.initialFP || fp != o.fp {
						t.Fatalf("%s seed %d step %d: object %q at %q (cached %q, initial %q)",
							k.Name(), seed, step, o.key, fp, o.fp, k.initialFP)
					}
				}
			}
		}
	}
}

func TestKeyedIndependentObjects(t *testing.T) {
	k := NewKeyed(NewQueue())
	s := k.Initial()
	apply := func(op, key string, arg spec.Value) spec.Value {
		t.Helper()
		ka, err := KeyArg(key, arg)
		if err != nil {
			t.Fatalf("KeyArg(%q, %v): %v", key, arg, err)
		}
		var ret spec.Value
		ret, s = s.Apply(op, ka)
		return ret
	}
	apply(OpEnqueue, "a", 1)
	apply(OpEnqueue, "b", 2)
	apply(OpEnqueue, "a", 3)
	if got := apply(OpPeek, "a", nil); !spec.ValuesEqual(got, 1) {
		t.Errorf("peek(a) = %v, want 1", got)
	}
	if got := apply(OpDequeue, "b", nil); !spec.ValuesEqual(got, 2) {
		t.Errorf("dequeue(b) = %v, want 2", got)
	}
	if got := apply(OpDequeue, "b", nil); !spec.ValuesEqual(got, EmptyMarker) {
		t.Errorf("dequeue(b) on drained object = %v, want empty", got)
	}
	if got := apply(OpDequeue, "a", nil); !spec.ValuesEqual(got, 1) {
		t.Errorf("dequeue(a) = %v, want 1", got)
	}
	if got := apply(OpDequeue, "a", nil); !spec.ValuesEqual(got, 3) {
		t.Errorf("dequeue(a) = %v, want 3", got)
	}
}

// TestKeyedFingerprintCanonical pins the canonicality contract: a key
// returned to (or only ever observed in) the base initial state must not
// appear in the fingerprint, so behaviorally equivalent states compare
// equal.
func TestKeyedFingerprintCanonical(t *testing.T) {
	k := NewKeyed(NewQueue())
	empty := k.Initial()

	_, touched := empty.Apply(OpPeek, "a") // accessor on an untouched key
	if got, want := touched.Fingerprint(), empty.Fingerprint(); got != want {
		t.Errorf("accessor-touched fingerprint %q != initial %q", got, want)
	}

	_, s := empty.Apply(OpEnqueue, KV{K: "a", V: 5})
	if s.Fingerprint() == empty.Fingerprint() {
		t.Error("enqueue(a,5) should change the fingerprint")
	}
	_, s = s.Apply(OpDequeue, "a")
	if got, want := s.Fingerprint(), empty.Fingerprint(); got != want {
		t.Errorf("drained-key fingerprint %q != initial %q", got, want)
	}

	// Distinct keys order-insensitively.
	_, ab := empty.Apply(OpEnqueue, KV{K: "a", V: 1})
	_, ab = ab.Apply(OpEnqueue, KV{K: "b", V: 2})
	_, ba := empty.Apply(OpEnqueue, KV{K: "b", V: 2})
	_, ba = ba.Apply(OpEnqueue, KV{K: "a", V: 1})
	if ab.Fingerprint() != ba.Fingerprint() {
		t.Errorf("cross-key commutation broken: %q vs %q", ab.Fingerprint(), ba.Fingerprint())
	}
}

func TestKeyedBadArgs(t *testing.T) {
	k := NewKeyed(NewQueue())
	s := k.Initial()
	if ret, next := s.Apply(OpEnqueue, 7); next.Fingerprint() != s.Fingerprint() {
		t.Errorf("un-keyed arg mutated state (ret %v)", ret)
	}
	if _, err := KeyArg("", nil); err == nil {
		t.Error("empty key should error")
	}
	if _, err := KeyArg("a", "str"); err == nil {
		t.Error("string base argument should error")
	}
}

func TestSplitKeyArgRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		key string
		arg spec.Value
	}{
		{"obj1", nil},
		{"obj2", 42},
	} {
		ka, err := KeyArg(tc.key, tc.arg)
		if err != nil {
			t.Fatal(err)
		}
		key, inner, ok := SplitKeyArg(ka)
		if !ok || key != tc.key || !spec.ValuesEqual(inner, tc.arg) {
			t.Errorf("round trip of (%q, %v) = (%q, %v, %v)", tc.key, tc.arg, key, inner, ok)
		}
	}
	if _, _, ok := SplitKeyArg(7); ok {
		t.Error("plain int is not a keyed argument")
	}
	if _, _, ok := SplitKeyArg(nil); ok {
		t.Error("nil is not a keyed argument")
	}
}

// TestKeyedLegalSequences replays a keyed sequence through the spec
// machinery end to end.
func TestKeyedLegalSequences(t *testing.T) {
	k := NewKeyed(NewStack())
	seq := []spec.Instance{
		{Op: OpPush, Arg: KV{K: "x", V: 1}, Ret: nil},
		{Op: OpPush, Arg: KV{K: "y", V: 2}, Ret: nil},
		{Op: OpPop, Arg: "x", Ret: 1},
		{Op: OpPop, Arg: "y", Ret: 2},
		{Op: OpPop, Arg: "x", Ret: EmptyMarker},
	}
	if !spec.Legal(k, seq) {
		t.Error("cross-key stack sequence should be legal")
	}
	bad := []spec.Instance{
		{Op: OpPush, Arg: KV{K: "x", V: 1}, Ret: nil},
		{Op: OpPop, Arg: "y", Ret: 1}, // wrong object
	}
	if spec.Legal(k, bad) {
		t.Error("pop from the wrong key should be illegal")
	}
}
