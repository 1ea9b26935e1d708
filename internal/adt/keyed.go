package adt

import (
	"fmt"
	"sort"
	"strconv"

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
	initialFP string
}

// NewKeyed wraps a base data type into its keyed family. The base type's
// operation arguments must be nil or int (true for every registry type);
// other argument shapes are rejected at call time by KeyArg.
func NewKeyed(inner spec.DataType) *Keyed {
	return &Keyed{
		inner:     inner,
		sampleKey: []string{"a", "b"},
		initialFP: inner.Initial().Fingerprint(),
	}
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
func (k *Keyed) Initial() spec.State {
	return keyedState{dt: k, objs: nil}
}

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

// keyedState is the immutable map key → base state. Keys whose substate
// is (back at) the base initial state are elided, keeping Fingerprint
// canonical: touching an object with accessors only leaves the state
// behaviorally — and representationally — unchanged.
type keyedState struct {
	dt   *Keyed
	objs map[string]spec.State
}

func (s keyedState) Apply(op string, arg spec.Value) (spec.Value, spec.State) {
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
	return ret, keyedState{dt: s.dt, objs: objs}
}

func (s keyedState) Fingerprint() string {
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
