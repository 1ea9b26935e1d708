package adt

import (
	"strconv"

	"lintime/internal/spec"
)

// MaxRegister operation names.
const (
	OpWriteMax = "writemax"
	OpReadMax  = "readmax"
)

// MaxRegister holds the maximum value ever written. WriteMax is a pure
// mutator that is transposable but — unlike a plain register write —
// commutative, hence *not* last-sensitive: the Theorem 3 lower bound does
// not apply, and the classifier must report that. ReadMax is a pure
// accessor.
//
// Operations:
//
//	writemax(v, ⊥) — pure mutator, commutative.
//	readmax(⊥, v)  — pure accessor.
type MaxRegister struct {
	initial int
}

// NewMaxRegister returns a max-register data type with the given initial
// value.
func NewMaxRegister(initial int) *MaxRegister { return &MaxRegister{initial: initial} }

// Name implements spec.DataType.
func (m *MaxRegister) Name() string { return "maxregister" }

// Ops implements spec.DataType.
func (m *MaxRegister) Ops() []spec.OpInfo {
	return []spec.OpInfo{
		{Name: OpWriteMax, Args: intArgs(4)},
		{Name: OpReadMax, Args: []spec.Value{nil}},
	}
}

// Initial implements spec.DataType.
func (m *MaxRegister) Initial() spec.State { return maxRegState{value: m.initial} }

type maxRegState struct {
	value int
}

func (s maxRegState) Apply(op string, arg spec.Value) (spec.Value, spec.State) {
	switch op {
	case OpWriteMax:
		v, ok := arg.(int)
		if !ok {
			return errValue(op, arg), s
		}
		if v > s.value {
			return nil, maxRegState{value: v}
		}
		return nil, s
	case OpReadMax:
		return s.value, s
	default:
		return errValue(op, arg), s
	}
}

func (s maxRegState) Fingerprint() string { return "max:" + strconv.Itoa(s.value) }
