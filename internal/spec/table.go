package spec

import (
	"fmt"
	"reflect"
)

// maxStates bounds what a Table carries from one search to the next.
const maxStates = 1 << 16

// Table is one data type's sequential specification compiled into
// integers: states interned by canonical fingerprint (id 0 is Initial()),
// invocations as kinds, return values as ids, and every transition taken
// cached as (state, kind) → (next, ret). Fingerprints decide equivalence
// (ρ1 ≡ ρ2 iff they reach one state), so equal ids are equivalent states,
// and Step memoises a pure function: Apply and Fingerprint run once per
// distinct (state, kind). Arguments and returns are identified by
// ValueKey. A Table is single-threaded: pool it, never share it.
type Table struct {
	dt       DataType
	states   []State
	fps      []string // fps[id] is states[id]'s fingerprint
	views    []*view  // compiled states handed out, by id; made on first use
	stateIDs map[string]int32
	kinds    []Invocation
	kindIDs  map[kindKey]int32
	values   []Value
	valueIDs map[any]int32
	edges    map[uint64]edge // state<<32 | kind → transition
	gen      uint32          // reset generation, stamped into every view
}

type kindKey struct {
	op  string
	arg any
}

type edge struct{ next, ret int32 }

// NewTable returns an empty Table for dt.
func NewTable(dt DataType) *Table {
	t := &Table{dt: dt}
	t.reset()
	return t
}

func (t *Table) reset() {
	*t = Table{dt: t.dt, stateIDs: map[string]int32{}, kindIDs: map[kindKey]int32{}, valueIDs: map[any]int32{}, edges: map[uint64]edge{}, gen: t.gen + 1}
	t.Intern(t.dt.Initial())
}

// Trim drops every table once one has outgrown the cap, so a Table that
// serves an unbounded stream of searches stays bounded, and reports
// whether it did. Ids and compiled states handed out before are then
// void: call it between searches, never during one.
func (t *Table) Trim() bool {
	if len(t.states) > maxStates || len(t.kinds) > maxStates || len(t.values) > maxStates || len(t.edges) > 8*maxStates {
		t.reset()
		return true
	}
	return false
}

// Intern returns the id of s's fingerprint, assigning the next id to one
// not met before.
func (t *Table) Intern(s State) int32 {
	fp := s.Fingerprint()
	id, ok := t.stateIDs[fp]
	if !ok {
		id = int32(len(t.states))
		t.states = append(t.states, s)
		t.fps = append(t.fps, fp)
		t.stateIDs[fp] = id
	}
	return id
}

// State returns the first state interned under the id.
func (t *Table) State(id int32) State { return t.states[id] }

// Kind returns the id of the invocation op(arg).
func (t *Table) Kind(op string, arg Value) int32 {
	return intern(&t.kinds, t.kindIDs, kindKey{op, ValueKey(arg)}, Invocation{Op: op, Arg: arg})
}

// InternValue returns the id of v. Ids are non-negative, so a caller may
// use −1 for "no value".
func (t *Table) InternValue(v Value) int32 { return intern(&t.values, t.valueIDs, ValueKey(v), v) }

// Value returns the first value interned under the id.
func (t *Table) Value(id int32) Value { return t.values[id] }

// Step applies the invocation kind in the state and returns the ids of the
// successor state and of the response.
func (t *Table) Step(state, kind int32) (next, ret int32) {
	key := uint64(state)<<32 | uint64(kind)
	e, ok := t.edges[key]
	if !ok {
		inv := t.kinds[kind]
		r, s := t.states[state].Apply(inv.Op, inv.Arg)
		e = edge{next: t.Intern(s), ret: t.InternValue(r)}
		t.edges[key] = e
	}
	return e.next, e.ret
}

// Compiled returns the Table's data type with its states compiled: the
// same name and operations, but Initial is the interned initial state,
// whose Apply is a Step — one map lookup once the edge is cached — that
// returns the interned response and the next interned state without
// allocating, and whose Fingerprint is the string cached at intern time.
// Such states belong to the Table: after a Trim that resets it, using one
// panics, so call Trim only while no run holds one.
func (t *Table) Compiled() DataType { return compiled{t} }

type compiled struct{ t *Table }

func (c compiled) Name() string   { return c.t.dt.Name() }
func (c compiled) Ops() []OpInfo  { return c.t.dt.Ops() }
func (c compiled) Initial() State { return c.t.view(0) }

// view is an interned state as a spec.State. It is a pointer, so handing
// one out through the interface allocates nothing.
type view struct {
	t   *Table
	id  int32
	gen uint32
}

// view returns state id's view, making it on first use.
func (t *Table) view(id int32) *view {
	for len(t.views) <= int(id) {
		t.views = append(t.views, nil)
	}
	v := t.views[id]
	if v == nil {
		v = &view{t: t, id: id, gen: t.gen}
		t.views[id] = v
	}
	return v
}

// live returns the view's Table, panicking if it was reset since the view
// was made: the view's id would now name another state.
func (v *view) live() *Table {
	if v.gen != v.t.gen {
		panic("spec: compiled state used after its Table was trimmed")
	}
	return v.t
}

func (v *view) Apply(op string, arg Value) (Value, State) {
	t := v.live()
	next, ret := t.Step(v.id, t.Kind(op, arg))
	return t.values[ret], t.view(next)
}

func (v *view) Fingerprint() string { return v.live().fps[v.id] }

// intern returns key's id in ids, appending v to list under the next id
// when the key is new.
func intern[K comparable, V any](list *[]V, ids map[K]int32, key K, v V) int32 {
	id, ok := ids[key]
	if !ok {
		id = int32(len(*list))
		*list = append(*list, v)
		ids[key] = id
	}
	return id
}

// ValueKey returns v's identity as a map key: v itself when it is
// comparable, otherwise its type and Go-syntax rendering, held in a type
// of its own so that it never equals a string value. Values with one key
// are ValuesEqual; 1 and "1", which print alike, have different keys.
func ValueKey(v Value) any {
	switch v.(type) {
	case nil, int, string, bool: // answered without reflection, which would make v escape
		return v
	}
	if reflect.ValueOf(v).Comparable() {
		return v
	}
	return formattedValue(fmt.Sprintf("%T %#v", v, v))
}

type formattedValue string
