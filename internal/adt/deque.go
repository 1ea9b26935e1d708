package adt

import "lintime/internal/spec"

// Deque operation names.
const (
	OpPushFront = "pushfront"
	OpPushBack  = "pushback"
	OpPopFront  = "popfront"
	OpPopBack   = "popback"
	OpFront     = "front"
	OpBack      = "back"
)

// Deque is a double-ended queue over int items. Both pushes are
// last-sensitive pure mutators, both pops are pair-free mixed operations,
// and both end accessors are pure accessors — six operations spanning all
// three of Algorithm 1's classes and both lower-bound families.
type Deque struct{}

// NewDeque returns the double-ended-queue data type.
func NewDeque() *Deque { return &Deque{} }

// Name implements spec.DataType.
func (d *Deque) Name() string { return "deque" }

// Ops implements spec.DataType.
func (d *Deque) Ops() []spec.OpInfo {
	return []spec.OpInfo{
		{Name: OpPushFront, Args: intArgs(4)},
		{Name: OpPushBack, Args: intArgs(4)},
		{Name: OpPopFront, Args: []spec.Value{nil}},
		{Name: OpPopBack, Args: []spec.Value{nil}},
		{Name: OpFront, Args: []spec.Value{nil}},
		{Name: OpBack, Args: []spec.Value{nil}},
	}
}

// Initial implements spec.DataType.
func (d *Deque) Initial() spec.State { return dequeState{} }

type dequeState struct {
	items []int // front at index 0; never mutated in place
}

func (s dequeState) Apply(op string, arg spec.Value) (spec.Value, spec.State) {
	switch op {
	case OpPushFront, OpPushBack:
		v, ok := arg.(int)
		if !ok {
			return errValue(op, arg), s
		}
		next := make([]int, 0, len(s.items)+1)
		if op == OpPushFront {
			next = append(next, v)
			next = append(next, s.items...)
		} else {
			next = append(next, s.items...)
			next = append(next, v)
		}
		return nil, dequeState{items: next}
	case OpPopFront:
		if len(s.items) == 0 {
			return EmptyMarker, s
		}
		return s.items[0], dequeState{items: s.items[1:]}
	case OpPopBack:
		if len(s.items) == 0 {
			return EmptyMarker, s
		}
		return s.items[len(s.items)-1], dequeState{items: s.items[:len(s.items)-1]}
	case OpFront:
		if len(s.items) == 0 {
			return EmptyMarker, s
		}
		return s.items[0], s
	case OpBack:
		if len(s.items) == 0 {
			return EmptyMarker, s
		}
		return s.items[len(s.items)-1], s
	default:
		return errValue(op, arg), s
	}
}

func (s dequeState) Fingerprint() string { return intsFingerprint("deque:", s.items) }
