package adt

import (
	"fmt"
	"strconv"

	"lintime/internal/spec"
)

// Register operation names.
const (
	OpRead  = "read"
	OpWrite = "write"
)

// Register is the classic read/write register over int values.
//
// Operations:
//
//	read(⊥, v)  — pure accessor; returns the current value.
//	write(v, ⊥) — pure mutator and overwriter; sets the value.
type Register struct {
	initial int
}

// NewRegister returns a register data type with the given initial value.
func NewRegister(initial int) *Register { return &Register{initial: initial} }

// Name implements spec.DataType.
func (r *Register) Name() string { return "register" }

// Ops implements spec.DataType.
func (r *Register) Ops() []spec.OpInfo {
	return []spec.OpInfo{
		{Name: OpRead, Args: []spec.Value{nil}},
		{Name: OpWrite, Args: intArgs(4)},
	}
}

// Initial implements spec.DataType.
func (r *Register) Initial() spec.State { return registerState{value: r.initial} }

type registerState struct {
	value int
}

func (s registerState) Apply(op string, arg spec.Value) (spec.Value, spec.State) {
	switch op {
	case OpRead:
		return s.value, s
	case OpWrite:
		v, ok := arg.(int)
		if !ok {
			return errValue(op, arg), s
		}
		return nil, registerState{value: v}
	default:
		return errValue(op, arg), s
	}
}

func (s registerState) Fingerprint() string { return "reg:" + strconv.Itoa(s.value) }

// errValue is the total-function response to a malformed invocation: the
// instance returns an error marker and leaves the state unchanged, so
// Completeness holds even for arguments outside the intended domain.
func errValue(op string, arg spec.Value) spec.Value {
	return fmt.Sprintf("error:%s(%s)", op, spec.FormatValue(arg))
}
