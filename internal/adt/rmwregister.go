package adt

import (
	"strconv"

	"lintime/internal/spec"
)

// OpRMW is the read-modify-write operation name.
const OpRMW = "rmw"

// RMWRegister is a register supporting read, write and an atomic
// read-modify-write. The RMW variant implemented is fetch-and-add: it
// returns the value held before the update and adds its argument. This is
// the canonical pair-free mixed operation from Table 1: two concurrent
// fetch-and-adds cannot both return the pre-state value, so rmw instances
// with the correct return value cannot follow one another.
//
// Operations:
//
//	read(⊥, v)   — pure accessor.
//	write(v, ⊥)  — pure mutator, overwriter.
//	rmw(δ, v)    — mixed (accessor+mutator), pair-free; returns the old
//	               value and adds δ.
type RMWRegister struct {
	initial int
}

// NewRMWRegister returns a read-modify-write register data type with the
// given initial value.
func NewRMWRegister(initial int) *RMWRegister { return &RMWRegister{initial: initial} }

// Name implements spec.DataType.
func (r *RMWRegister) Name() string { return "rmwregister" }

// Ops implements spec.DataType.
func (r *RMWRegister) Ops() []spec.OpInfo {
	return []spec.OpInfo{
		{Name: OpRead, Args: []spec.Value{nil}},
		{Name: OpWrite, Args: intArgs(4)},
		{Name: OpRMW, Args: []spec.Value{1, 2, 3, 5}},
	}
}

// Initial implements spec.DataType.
func (r *RMWRegister) Initial() spec.State { return rmwState{value: r.initial} }

type rmwState struct {
	value int
}

func (s rmwState) Apply(op string, arg spec.Value) (spec.Value, spec.State) {
	switch op {
	case OpRead:
		return s.value, s
	case OpWrite:
		v, ok := arg.(int)
		if !ok {
			return errValue(op, arg), s
		}
		return nil, rmwState{value: v}
	case OpRMW:
		delta, ok := arg.(int)
		if !ok {
			return errValue(op, arg), s
		}
		return s.value, rmwState{value: s.value + delta}
	default:
		return errValue(op, arg), s
	}
}

func (s rmwState) Fingerprint() string { return "rmw:" + strconv.Itoa(s.value) }
