package obs

import "fmt"

// Stage is one waypoint in an operation's lifecycle. The stages mirror
// the paper's timing diagram for Algorithm 1: the client invoke starts
// the span; a mutator's replica broadcast fans out; each delivery lands
// the update at a peer; the stabilization timer (the u+ε / X+ε wait)
// fires; the response closes the span.
type Stage uint8

// Lifecycle stages, in canonical order. StageDropped sits outside the
// happy path: it marks a delivery that reached a crashed process and was
// discarded instead of handled.
const (
	StageInvoke Stage = iota
	StageBroadcast
	StageDeliver
	StageTimer
	StageRespond
	StageDropped
)

// MarshalJSON renders the stage as its canonical name, so flight-recorder
// dumps and trace exports stay readable without the enum table.
func (s Stage) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageInvoke:
		return "invoke"
	case StageBroadcast:
		return "broadcast"
	case StageDeliver:
		return "deliver"
	case StageTimer:
		return "timer"
	case StageRespond:
		return "respond"
	case StageDropped:
		return "dropped"
	default:
		return fmt.Sprintf("Stage(%d)", uint8(s))
	}
}

// SpanEvent is one recorded waypoint. Span is the operation's SeqID
// (cluster- or engine-unique), or -1 for events no pending operation
// could be blamed for (e.g. a background timer on an idle process).
// Time is in virtual ticks on whichever substrate recorded the event.
//
// Sent and Residency are causal-delivery annotations, populated only for
// StageDeliver events recorded through Collector.Deliver: Sent is the
// tick the message left its sender, and Residency is the portion of the
// delivery delay spent waiting in a coalescing batch window rather than
// in flight.
type SpanEvent struct {
	Span      int64  `json:"span"`
	Stage     Stage  `json:"stage"`
	Proc      int32  `json:"proc"`
	Time      int64  `json:"time"`
	Op        string `json:"op,omitempty"` // set on StageInvoke only
	Sent      int64  `json:"sent,omitempty"`
	Residency int64  `json:"residency,omitempty"`
}

// Tracer is the name the frozen bench/ module spells the span sink by.
// There is one sink, *Collector, and nil means tracing is off; the alias
// goes with ROADMAP item 9.
type Tracer = *Collector
