package obs

import (
	"fmt"
	"sync"
)

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
// StageDeliver events recorded through a CausalTracer's Deliver hook:
// Sent is the tick the message left its sender, and Residency is the
// portion of the delivery delay spent waiting in a coalescing batch
// window rather than in flight.
type SpanEvent struct {
	Span      int64  `json:"span"`
	Stage     Stage  `json:"stage"`
	Proc      int32  `json:"proc"`
	Time      int64  `json:"time"`
	Op        string `json:"op,omitempty"` // set on StageInvoke only
	Sent      int64  `json:"sent,omitempty"`
	Residency int64  `json:"residency,omitempty"`
}

// Tracer observes operation lifecycles. Implementations must be safe for
// concurrent use: a live cluster records from its scheduler goroutine
// while the serving layer reads.
//
// Attribution leans on the model's one-pending-operation-per-process
// rule: OpStart makes span the process's current span, and the substrate
// stamps sends and timer registrations with CurrentSpan at the moment
// they happen — so a delivery or timer fire is attributed to the
// operation that caused it, even when it executes on another process or
// after the span moved on.
type Tracer interface {
	// OpStart records the invoke waypoint and makes span the process's
	// current span.
	OpStart(proc int32, span int64, op string, now int64)
	// Event records an intermediate waypoint for span (-1 allowed).
	Event(span int64, stage Stage, proc int32, now int64)
	// OpEnd records the respond waypoint and clears the process's current
	// span.
	OpEnd(proc int32, span int64, now int64)
	// CurrentSpan returns the process's current span, or -1.
	CurrentSpan(proc int32) int64
}

// Nop is the tracer compiled in by default: every method is an empty
// no-op, so the TraceOff hot path pays nothing beyond the enabled-check
// branch the instrumented engines already fold it into.
var Nop Tracer = nopTracer{}

type nopTracer struct{}

func (nopTracer) OpStart(int32, int64, string, int64) {}
func (nopTracer) Event(int64, Stage, int32, int64)    {}
func (nopTracer) OpEnd(int32, int64, int64)           {}
func (nopTracer) CurrentSpan(int32) int64             { return -1 }

// IsNop reports whether t is nil or the Nop tracer — the check the
// instrumented engines use to skip tracing entirely.
func IsNop(t Tracer) bool {
	if t == nil {
		return true
	}
	_, off := t.(nopTracer)
	return off
}

// CausalTracer extends Tracer with the causal metadata the cross-process
// tracing subsystem records: parent edges between spans, child spans for
// protocol phases, and per-delivery latency accounting. The substrates
// detect the extension with a type assertion at SetTracer time and fall
// back to the flat Tracer hooks when it is absent, so existing Tracer
// implementations keep working unchanged.
type CausalTracer interface {
	Tracer
	// OpStartCtx is OpStart carrying a causal parent: the span of the
	// client-side operation that caused this one (propagated through the
	// wire protocols), or -1 for a local root.
	OpStartCtx(proc int32, span, parent int64, op string, now int64)
	// Child opens a named child span (e.g. a quorum phase) under parent.
	Child(proc int32, span, parent int64, name string, now int64)
	// ChildEnd closes a child span.
	ChildEnd(proc int32, span int64, now int64)
	// Deliver is Event(span, StageDeliver, proc, now) plus delivery
	// accounting: the send tick and the batch-window residency portion of
	// the delay (0 for unbatched deliveries).
	Deliver(span int64, proc int32, now, sent, residency int64)
}

// Ring is a fixed-capacity recording tracer: the last capacity events,
// in record order, plus per-process current spans. One mutex guards
// everything — tracing is a debugging/verification tool, not a hot-path
// default, so contention here is acceptable and the memory bound is
// strict.
type Ring struct {
	mu      sync.Mutex
	events  []SpanEvent
	next    int
	wrapped bool
	dropped int64
	cur     map[int32]int64
}

// NewRing builds a ring tracer holding the last capacity events
// (capacity ≤ 0 selects 4096).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Ring{events: make([]SpanEvent, capacity), cur: map[int32]int64{}}
}

func (r *Ring) record(ev SpanEvent) {
	if r.wrapped {
		r.dropped++
	}
	r.events[r.next] = ev
	r.next++
	if r.next == len(r.events) {
		r.next = 0
		r.wrapped = true
	}
}

// OpStart implements Tracer.
func (r *Ring) OpStart(proc int32, span int64, op string, now int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.record(SpanEvent{Span: span, Stage: StageInvoke, Proc: proc, Time: now, Op: op})
	r.cur[proc] = span
}

// Event implements Tracer.
func (r *Ring) Event(span int64, stage Stage, proc int32, now int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.record(SpanEvent{Span: span, Stage: stage, Proc: proc, Time: now})
}

// OpEnd implements Tracer.
func (r *Ring) OpEnd(proc int32, span int64, now int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.record(SpanEvent{Span: span, Stage: StageRespond, Proc: proc, Time: now})
	delete(r.cur, proc)
}

// CurrentSpan implements Tracer.
func (r *Ring) CurrentSpan(proc int32) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if span, ok := r.cur[proc]; ok {
		return span
	}
	return -1
}

// Events returns the retained events in record order: after the ring has
// wrapped, the oldest retained event is the one at the write cursor, so
// the copy starts there and walks the ring modularly — never the raw
// backing-array order, which would splice the newest events in front of
// the oldest across the wrap boundary (pinned by TestRingWrapOrder).
func (r *Ring) Events() []SpanEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrapped {
		return append([]SpanEvent(nil), r.events[:r.next]...)
	}
	out := make([]SpanEvent, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Span returns the retained events of one span, in record order. A span
// whose oldest events have been overwritten by the wrap comes back
// truncated; use SpanEvents when the caller must distinguish a complete
// lifecycle from an evicted head or tail.
func (r *Ring) Span(span int64) []SpanEvent {
	evs, _ := r.SpanEvents(span)
	return evs
}

// SpanEvents returns one span's retained events in record order, plus
// whether the lifecycle is complete: a partially-evicted span — its
// StageInvoke (and possibly more) already overwritten, or its
// StageRespond not yet recorded — reports complete=false, so consumers
// (latency attribution, tree assembly) can skip it instead of
// misreading a truncated sequence as a whole operation.
func (r *Ring) SpanEvents(span int64) ([]SpanEvent, bool) {
	var out []SpanEvent
	for _, ev := range r.Events() {
		if ev.Span == span {
			out = append(out, ev)
		}
	}
	complete := len(out) > 0 &&
		out[0].Stage == StageInvoke &&
		out[len(out)-1].Stage == StageRespond
	return out, complete
}

// Dropped returns how many events the ring has overwritten.
func (r *Ring) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
