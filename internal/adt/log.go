package adt

import "lintime/internal/spec"

// Log operation names.
const (
	OpAppend = "append"
	OpAt     = "at"
	OpLen    = "len"
	OpLast   = "last"
)

// Log is an append-only log of int entries. Append is a pure mutator that
// is transposable and last-sensitive for any k; at/len/last are pure
// accessors. The log is the archetypal shared object in replicated
// systems, and a good stress case for the history-replay executor because
// its state grows without bound.
//
// Operations:
//
//	append(v, ⊥) — pure mutator.
//	at(i, v|-1)  — pure accessor; entry at index i or -1.
//	len(⊥, n)    — pure accessor.
//	last(⊥, v|-1)— pure accessor; latest entry or -1.
type Log struct{}

// NewLog returns the append-only log data type.
func NewLog() *Log { return &Log{} }

// Name implements spec.DataType.
func (l *Log) Name() string { return "log" }

// Ops implements spec.DataType.
func (l *Log) Ops() []spec.OpInfo {
	return []spec.OpInfo{
		{Name: OpAppend, Args: intArgs(4)},
		{Name: OpAt, Args: []spec.Value{0, 1, 2}},
		{Name: OpLen, Args: []spec.Value{nil}},
		{Name: OpLast, Args: []spec.Value{nil}},
	}
}

// Initial implements spec.DataType.
func (l *Log) Initial() spec.State { return logState{} }

type logState struct {
	entries []int // never mutated in place
}

func (s logState) Apply(op string, arg spec.Value) (spec.Value, spec.State) {
	switch op {
	case OpAppend:
		v, ok := arg.(int)
		if !ok {
			return errValue(op, arg), s
		}
		next := make([]int, len(s.entries)+1)
		copy(next, s.entries)
		next[len(s.entries)] = v
		return nil, logState{entries: next}
	case OpAt:
		i, ok := arg.(int)
		if !ok {
			return errValue(op, arg), s
		}
		if i < 0 || i >= len(s.entries) {
			return AbsentMarker, s
		}
		return s.entries[i], s
	case OpLen:
		return len(s.entries), s
	case OpLast:
		if len(s.entries) == 0 {
			return AbsentMarker, s
		}
		return s.entries[len(s.entries)-1], s
	default:
		return errValue(op, arg), s
	}
}

func (s logState) Fingerprint() string { return intsFingerprint("log:", s.entries) }
