package adt

import (
	"sort"

	"lintime/internal/spec"
)

// Set operation names.
const (
	OpAdd      = "add"
	OpRemove   = "remove"
	OpContains = "contains"
	OpSize     = "size"
)

// Set is a mathematical set of ints. Add and remove are commutative
// (idempotent) pure mutators — deliberately *not* last-sensitive, which
// exercises the negative side of the classify decision procedures and
// shows that the (1-1/k)u lower bound of Theorem 3 does not apply to every
// mutator.
//
// Operations:
//
//	add(v, ⊥)       — pure mutator, commutative.
//	remove(v, ⊥)    — pure mutator, commutative.
//	contains(v, b)  — pure accessor.
//	size(⊥, n)      — pure accessor.
type Set struct{}

// NewSet returns the int-set data type.
func NewSet() *Set { return &Set{} }

// Name implements spec.DataType.
func (s *Set) Name() string { return "set" }

// Ops implements spec.DataType.
func (s *Set) Ops() []spec.OpInfo {
	return []spec.OpInfo{
		{Name: OpAdd, Args: intArgs(4)},
		{Name: OpRemove, Args: intArgs(4)},
		{Name: OpContains, Args: intArgs(4)},
		{Name: OpSize, Args: []spec.Value{nil}},
	}
}

// Initial implements spec.DataType.
func (s *Set) Initial() spec.State { return setState{members: map[int]bool{}} }

type setState struct {
	members map[int]bool
}

func (s setState) clone() setState {
	next := make(map[int]bool, len(s.members))
	for k := range s.members {
		next[k] = true
	}
	return setState{members: next}
}

func (s setState) Apply(op string, arg spec.Value) (spec.Value, spec.State) {
	switch op {
	case OpAdd:
		v, ok := arg.(int)
		if !ok {
			return errValue(op, arg), s
		}
		if s.members[v] {
			return nil, s
		}
		next := s.clone()
		next.members[v] = true
		return nil, next
	case OpRemove:
		v, ok := arg.(int)
		if !ok {
			return errValue(op, arg), s
		}
		if !s.members[v] {
			return nil, s
		}
		next := s.clone()
		delete(next.members, v)
		return nil, next
	case OpContains:
		v, ok := arg.(int)
		if !ok {
			return errValue(op, arg), s
		}
		return s.members[v], s
	case OpSize:
		return len(s.members), s
	default:
		return errValue(op, arg), s
	}
}

func (s setState) Fingerprint() string {
	vals := make([]int, 0, len(s.members))
	for v := range s.members {
		vals = append(vals, v)
	}
	sort.Ints(vals)
	return intsFingerprint("set:", vals)
}
