package adt

import (
	"sort"

	"lintime/internal/spec"
)

// Priority queue operation names.
const (
	OpPQInsert  = "insert"
	OpPQExtract = "extractmin"
	OpPQMin     = "min"
)

// PQueue is a min-priority queue over int keys (a multiset with minimum
// extraction). It exercises a classification corner the paper's examples
// do not: insert is a *commutative* pure mutator — the multiset is
// order-blind — so Theorem 3 does not apply to it even though it is a
// mutator with unboundedly many distinct instances.
//
// Operations:
//
//	insert(v, ⊥)      — pure mutator, commutative (NOT last-sensitive).
//	extractmin(⊥, v)  — mixed, pair-free; removes and returns the
//	                    minimum, or "empty".
//	min(⊥, v)         — pure accessor; returns the minimum or "empty".
type PQueue struct{}

// NewPQueue returns the min-priority-queue data type.
func NewPQueue() *PQueue { return &PQueue{} }

// Name implements spec.DataType.
func (q *PQueue) Name() string { return "pqueue" }

// Ops implements spec.DataType.
func (q *PQueue) Ops() []spec.OpInfo {
	return []spec.OpInfo{
		{Name: OpPQInsert, Args: intArgs(4)},
		{Name: OpPQExtract, Args: []spec.Value{nil}},
		{Name: OpPQMin, Args: []spec.Value{nil}},
	}
}

// Initial implements spec.DataType.
func (q *PQueue) Initial() spec.State { return pqState{} }

// pqState keeps the multiset as a sorted slice (canonical form).
type pqState struct {
	keys []int // sorted ascending; never mutated in place
}

func (s pqState) Apply(op string, arg spec.Value) (spec.Value, spec.State) {
	switch op {
	case OpPQInsert:
		v, ok := arg.(int)
		if !ok {
			return errValue(op, arg), s
		}
		next := make([]int, len(s.keys)+1)
		i := sort.SearchInts(s.keys, v)
		copy(next, s.keys[:i])
		next[i] = v
		copy(next[i+1:], s.keys[i:])
		return nil, pqState{keys: next}
	case OpPQExtract:
		if len(s.keys) == 0 {
			return EmptyMarker, s
		}
		return s.keys[0], pqState{keys: s.keys[1:]}
	case OpPQMin:
		if len(s.keys) == 0 {
			return EmptyMarker, s
		}
		return s.keys[0], s
	default:
		return errValue(op, arg), s
	}
}

func (s pqState) Fingerprint() string { return intsFingerprint("pq:", s.keys) }
