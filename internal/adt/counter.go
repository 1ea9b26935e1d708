package adt

import (
	"strconv"

	"lintime/internal/spec"
)

// Counter operation names.
const (
	OpInc     = "inc"
	OpAddN    = "addn"
	OpReadCtr = "read"
)

// Counter is an integer counter. Inc and addn are commutative pure
// mutators (not last-sensitive); read is a pure accessor.
//
// Operations:
//
//	inc(⊥, ⊥)  — pure mutator; adds one.
//	addn(n, ⊥) — pure mutator; adds n.
//	read(⊥, v) — pure accessor.
type Counter struct{}

// NewCounter returns the counter data type.
func NewCounter() *Counter { return &Counter{} }

// Name implements spec.DataType.
func (c *Counter) Name() string { return "counter" }

// Ops implements spec.DataType.
func (c *Counter) Ops() []spec.OpInfo {
	return []spec.OpInfo{
		{Name: OpInc, Args: []spec.Value{nil}},
		{Name: OpAddN, Args: []spec.Value{1, 2, 5}},
		{Name: OpReadCtr, Args: []spec.Value{nil}},
	}
}

// Initial implements spec.DataType.
func (c *Counter) Initial() spec.State { return counterState{} }

type counterState struct {
	value int
}

func (s counterState) Apply(op string, arg spec.Value) (spec.Value, spec.State) {
	switch op {
	case OpInc:
		return nil, counterState{value: s.value + 1}
	case OpAddN:
		n, ok := arg.(int)
		if !ok {
			return errValue(op, arg), s
		}
		return nil, counterState{value: s.value + n}
	case OpReadCtr:
		return s.value, s
	default:
		return errValue(op, arg), s
	}
}

func (s counterState) Fingerprint() string { return "ctr:" + strconv.Itoa(s.value) }
