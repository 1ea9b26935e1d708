package adt

import "lintime/internal/spec"

// Stack operation names.
const (
	OpPush = "push"
	OpPop  = "pop"
	// Stacks reuse OpPeek from the queue for their top accessor.
)

// Stack is a LIFO stack over int items (Table 3 of the paper).
//
// Operations:
//
//	push(v, ⊥) — pure mutator, transposable and last-sensitive.
//	pop(⊥, v)  — mixed (accessor+mutator), pair-free; returns and removes
//	             the top, or "empty".
//	peek(⊥, v) — pure accessor; returns the top without removing it.
type Stack struct{}

// NewStack returns the LIFO stack data type.
func NewStack() *Stack { return &Stack{} }

// Name implements spec.DataType.
func (st *Stack) Name() string { return "stack" }

// Ops implements spec.DataType.
func (st *Stack) Ops() []spec.OpInfo {
	return []spec.OpInfo{
		{Name: OpPush, Args: intArgs(4)},
		{Name: OpPop, Args: []spec.Value{nil}},
		{Name: OpPeek, Args: []spec.Value{nil}},
	}
}

// Initial implements spec.DataType.
func (st *Stack) Initial() spec.State { return stackState{} }

type stackState struct {
	items []int // top at the end; never mutated in place
}

func (s stackState) Apply(op string, arg spec.Value) (spec.Value, spec.State) {
	switch op {
	case OpPush:
		v, ok := arg.(int)
		if !ok {
			return errValue(op, arg), s
		}
		next := make([]int, len(s.items)+1)
		copy(next, s.items)
		next[len(s.items)] = v
		return nil, stackState{items: next}
	case OpPop:
		if len(s.items) == 0 {
			return EmptyMarker, s
		}
		top := s.items[len(s.items)-1]
		return top, stackState{items: s.items[:len(s.items)-1]}
	case OpPeek:
		if len(s.items) == 0 {
			return EmptyMarker, s
		}
		return s.items[len(s.items)-1], s
	default:
		return errValue(op, arg), s
	}
}

func (s stackState) Fingerprint() string { return intsFingerprint("stack:", s.items) }
