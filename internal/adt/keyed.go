package adt

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"lintime/internal/spec"
)

// Keyed lifts a base data type to a family of independent named objects:
// the state is a finite map key → base-type state, every operation names
// the object it acts on, and objects not yet touched are in the base
// initial state. The serving layer's shard-set serves one Keyed object
// per shard, so many named objects (keys) share one Algorithm 1 cluster
// while remaining sequentially independent.
//
// Linearizability of a Keyed object implies linearizability of every
// per-key projection (each key's subhistory replays against the base
// type), which is the direction the shard-set's per-object checker
// verifies; the converse holds too because operations on distinct keys
// commute.
//
// Argument convention: a keyed invocation packs (key, base argument) into
// one spec.Value via KeyArg — the bare key string when the base argument
// is nil, or KV{K: key, V: v} when it is an int. These are exactly the
// shapes the histio wire encoding already carries, so keyed operations
// need no protocol extension beyond the request's key field.
//
// Classification note: wrapping preserves each operation's algebraic
// class. A base pure mutator applied under a key mutates only that key's
// substate and still returns a state-independent value; a base pure
// accessor still never mutates. The serving layer therefore classifies
// the basis type and reuses those classes for the keyed ops (same names).
type Keyed struct {
	inner     spec.DataType
	sampleKey []string
	innerInit spec.State // the base initial state every untouched object is in
	initialFP string     // innerInit.Fingerprint()
	initial   *keyedState
}

// NewKeyed wraps a base data type into its keyed family. The base type's
// operation arguments must be nil or int (true for every registry type);
// other argument shapes are rejected at call time by KeyArg.
func NewKeyed(inner spec.DataType) *Keyed {
	base := inner.Initial()
	k := &Keyed{
		inner:     inner,
		sampleKey: []string{"a", "b"},
		innerInit: base,
		initialFP: base.Fingerprint(),
	}
	k.initial = &keyedState{dt: k}
	return k
}

// Name implements spec.DataType.
func (k *Keyed) Name() string { return "keyed-" + k.inner.Name() }

// Basis returns the wrapped base data type.
func (k *Keyed) Basis() spec.DataType { return k.inner }

// Ops implements spec.DataType: the base operations with arguments lifted
// over a small sample key set (enough for the classification decision
// procedures to exercise cross-key interleavings).
func (k *Keyed) Ops() []spec.OpInfo {
	base := k.inner.Ops()
	out := make([]spec.OpInfo, len(base))
	for i, op := range base {
		var args []spec.Value
		for _, key := range k.sampleKey {
			for _, a := range op.Args {
				ka, err := KeyArg(key, a)
				if err != nil {
					continue
				}
				args = append(args, ka)
			}
		}
		out[i] = spec.OpInfo{Name: op.Name, Args: args}
	}
	return out
}

// Initial implements spec.DataType.
func (k *Keyed) Initial() spec.State { return k.initial }

// KeyArg packs an object key and a base-type argument into one keyed
// argument value: the bare key when the base argument is nil, KV{key, v}
// when it is an int.
func KeyArg(key string, arg spec.Value) (spec.Value, error) {
	if key == "" {
		return nil, fmt.Errorf("adt: keyed operation needs a non-empty key")
	}
	switch v := arg.(type) {
	case nil:
		return key, nil
	case int:
		return KV{K: key, V: v}, nil
	default:
		return nil, fmt.Errorf("adt: keyed argument must be nil or int, got %T", arg)
	}
}

// SplitKeyArg is the inverse of KeyArg: it unpacks a keyed argument into
// the object key and the base-type argument. ok is false for values that
// are not keyed arguments.
func SplitKeyArg(arg spec.Value) (key string, inner spec.Value, ok bool) {
	switch v := arg.(type) {
	case string:
		return v, nil, v != ""
	case KV:
		return v.K, v.V, v.K != ""
	default:
		return "", nil, false
	}
}

// keyedState is the immutable map key → base state: a key-sorted slice,
// copied on write, whose entries cache their object's fingerprint. Keys
// whose substate is (back at) the base initial state are elided, keeping
// Fingerprint canonical: touching an object with accessors only leaves the
// state behaviorally — and representationally — unchanged. A *keyedState
// is one pointer, so it boxes into a spec.State without allocating.
type keyedState struct {
	dt   *Keyed
	objs []keyedObj
}

type keyedObj struct {
	key string
	st  spec.State
	fp  string // st.Fingerprint()
}

func (s *keyedState) Apply(op string, arg spec.Value) (spec.Value, spec.State) {
	key, innerArg, ok := SplitKeyArg(arg)
	if !ok {
		return errValue(op, arg), s
	}
	i, exists := slices.BinarySearchFunc(s.objs, key, func(o keyedObj, key string) int {
		return strings.Compare(o.key, key)
	})
	obj, fp := s.dt.innerInit, s.dt.initialFP
	if exists {
		obj, fp = s.objs[i].st, s.objs[i].fp
	}
	ret, next := obj.Apply(op, innerArg)
	nextFP := next.Fingerprint()
	if nextFP == fp {
		return ret, s
	}
	// Copy on write: the entries before the key, the key's new entry unless
	// it is back at the initial state, and the entries after it.
	objs := append(make([]keyedObj, 0, len(s.objs)+1), s.objs[:i]...)
	if nextFP != s.dt.initialFP {
		objs = append(objs, keyedObj{key: key, st: next, fp: nextFP})
	}
	if exists {
		i++
	}
	return ret, &keyedState{dt: s.dt, objs: append(objs, s.objs[i:]...)}
}

func (s *keyedState) Fingerprint() string {
	buf := append(make([]byte, 0, 64), "keyed{"...)
	for i, o := range s.objs {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = append(strconv.AppendQuote(buf, o.key), '=')
		buf = append(buf, o.fp...)
	}
	return string(append(buf, '}'))
}
