// Package spec defines sequential specifications of shared-object data
// types in the style of Section 2.1 of the paper.
//
// A data type T has a set of operations OPS(T); an operation instance
// OP(arg, ret) pairs an invocation argument with a response value. The set
// of legal sequences L(T) must satisfy Prefix Closure, Completeness and
// Determinism. We realize L(T) with deterministic sequential state
// machines: a sequence is legal iff replaying it from the initial state
// produces, at each step, exactly the recorded return value. This
// construction guarantees all three axioms:
//
//   - Prefix Closure: replay of a prefix is a prefix of the replay.
//   - Completeness: Apply is total, so every invocation has a response.
//   - Determinism: Apply is a function of (state, op, arg).
//
// Equivalence of sequences (ρ1 ≡ ρ2 iff every continuation is legal after
// ρ1 exactly when it is legal after ρ2) reduces to equality of the states
// reached, which ADTs expose through canonical fingerprints.
package spec

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Value is an operation argument or return value. Implementations use
// small scalar values (ints, strings, bools, nil) or flat structs;
// equality is structural.
type Value any

// ValuesEqual reports structural equality of two values.
func ValuesEqual(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return reflect.DeepEqual(a, b)
}

// FormatValue renders a value compactly for fingerprints and traces. The
// shapes histories are made of (⊥, ints, strings) render as %v would,
// without fmt: history hashing formats two values per operation.
func FormatValue(v Value) string {
	switch x := v.(type) {
	case nil:
		return "⊥"
	case int:
		return strconv.Itoa(x)
	case string:
		return x
	}
	return fmt.Sprintf("%v", v)
}

// Instance is an operation instance OP(arg, ret): an invocation bundled
// with its matching response.
type Instance struct {
	Op  string
	Arg Value
	Ret Value
}

// String renders the instance as OP(arg, ret).
func (in Instance) String() string {
	return fmt.Sprintf("%s(%s, %s)", in.Op, FormatValue(in.Arg), FormatValue(in.Ret))
}

// Invocation is an operation invocation OP(arg) whose response is not yet
// determined.
type Invocation struct {
	Op  string
	Arg Value
}

// String renders the invocation as OP(arg).
func (iv Invocation) String() string {
	return fmt.Sprintf("%s(%s)", iv.Op, FormatValue(iv.Arg))
}

// State is an immutable sequential state of a data type. Apply must be
// deterministic and total, and must not mutate the receiver: it returns
// the response and the successor state. Fingerprint must be canonical:
// two states are behaviorally equivalent iff their fingerprints are equal.
type State interface {
	Apply(op string, arg Value) (ret Value, next State)
	Fingerprint() string
}

// OpInfo describes one operation of a data type: its name and a finite,
// representative sample of invocation arguments used by the classification
// decision procedures and by workload generators. Operations without
// arguments use the single sample nil.
type OpInfo struct {
	Name string
	Args []Value
}

// DataType is a sequential data-type specification.
type DataType interface {
	Name() string
	Ops() []OpInfo
	Initial() State
}

// OpNames returns the operation names of a data type in declaration order.
func OpNames(dt DataType) []string {
	ops := dt.Ops()
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = op.Name
	}
	return names
}

// FindOp returns the OpInfo with the given name.
func FindOp(dt DataType, name string) (OpInfo, bool) {
	for _, op := range dt.Ops() {
		if op.Name == name {
			return op, true
		}
	}
	return OpInfo{}, false
}

// Replay applies the invocations underlying seq from state s, ignoring the
// recorded return values, and returns the resulting state.
func Replay(s State, seq []Instance) State {
	for _, in := range seq {
		_, s = s.Apply(in.Op, in.Arg)
	}
	return s
}

// ReplayLegal replays seq from state s checking the recorded return value
// of every instance. It returns the final state and the index of the first
// illegal instance (or -1 if the whole sequence is legal).
func ReplayLegal(s State, seq []Instance) (State, int) {
	for i, in := range seq {
		ret, next := s.Apply(in.Op, in.Arg)
		if !ValuesEqual(ret, in.Ret) {
			return s, i
		}
		s = next
	}
	return s, -1
}

// Legal reports whether seq is a legal sequence of dt, i.e. a member of
// L(T).
func Legal(dt DataType, seq []Instance) bool {
	_, bad := ReplayLegal(dt.Initial(), seq)
	return bad == -1
}

// LegalFrom reports whether seq is legal when executed from state s.
func LegalFrom(s State, seq []Instance) bool {
	_, bad := ReplayLegal(s, seq)
	return bad == -1
}

// Complete converts a sequence of invocations into the unique legal
// sequence of instances starting from state s (Completeness + Determinism
// guarantee existence and uniqueness).
func Complete(s State, invs []Invocation) []Instance {
	out := make([]Instance, len(invs))
	for i, iv := range invs {
		ret, next := s.Apply(iv.Op, iv.Arg)
		out[i] = Instance{Op: iv.Op, Arg: iv.Arg, Ret: ret}
		s = next
	}
	return out
}

// Response returns the unique legal return value for invoking op(arg) in
// state s.
func Response(s State, op string, arg Value) Value {
	ret, _ := s.Apply(op, arg)
	return ret
}

// Equivalent reports whether ρ1 ≡ ρ2 for data type dt: every continuation
// legal after ρ1 is legal after ρ2 and vice versa. Both sequences must be
// legal; Equivalent panics otherwise, since equivalence of illegal
// sequences is not meaningful in the paper's definitions.
func Equivalent(dt DataType, rho1, rho2 []Instance) bool {
	s1, bad1 := ReplayLegal(dt.Initial(), rho1)
	s2, bad2 := ReplayLegal(dt.Initial(), rho2)
	if bad1 != -1 {
		panic(fmt.Sprintf("spec: Equivalent called with illegal ρ1 (instance %d)", bad1))
	}
	if bad2 != -1 {
		panic(fmt.Sprintf("spec: Equivalent called with illegal ρ2 (instance %d)", bad2))
	}
	return s1.Fingerprint() == s2.Fingerprint()
}

// FormatSeq renders a sequence of instances as "op(a,r).op(a,r)...".
func FormatSeq(seq []Instance) string {
	if len(seq) == 0 {
		return "ε"
	}
	parts := make([]string, len(seq))
	for i, in := range seq {
		parts[i] = in.String()
	}
	return strings.Join(parts, ".")
}

// CompareValues orders values by their formatted representation; values
// that print alike compare equal.
func CompareValues(a, b Value) int {
	return strings.Compare(FormatValue(a), FormatValue(b))
}

// SortValues orders a slice of values as CompareValues does; useful for
// canonical fingerprints of set-like states.
func SortValues(vs []Value) {
	sort.Slice(vs, func(i, j int) bool {
		return CompareValues(vs[i], vs[j]) < 0
	})
}
