// Causal, cross-process tracing with deterministic latency attribution.
//
// The Collector is the one span sink, a tree store: every operation is a
// root span, quorum phases open child spans under it, and message
// deliveries attach to whichever span caused them, propagated through
// the engine's handling context and the wire protocol's trace-context
// field. A completed root
// decomposes its wall-clock (virtual-tick) latency into named terms that
// sum exactly to the measured latency:
//
//	latency = queue + exec + net_delay + batch_residency + x_wait + skew_adjust
//
// The identity is structural, not statistical: the owner process records
// its span waypoints from a single goroutine, so the waypoint intervals
// telescope from invoke to respond; each interval is assigned wholly to
// one term (splitting delivery intervals exactly between residency and
// flight), and the stabilization-timer wait is split by the paper's own
// formulas — X for a mutator's x_wait, d−X for an accessor's net_delay,
// d for an unclassified wait — with the remainder (the ε the formulas
// add, plus real scheduling jitter on the rtnet substrate) landing in
// skew_adjust. Tests assert the sum exactly.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Term names one component of an operation's attributed latency.
type Term uint8

// Attribution terms, in canonical (export) order.
const (
	// TermXWait is the deliberate accessor/mutator trade-off wait: the X
	// ticks a mutator holds its response (|MOP| = X+ε).
	TermXWait Term = iota
	// TermNetDelay is time spent waiting on message propagation: an
	// accessor's d−X stabilization wait, an unclassified operation's d,
	// and mid-span delivery waits (quorum ack round trips).
	TermNetDelay
	// TermBatchResidency is the portion of a mid-span delivery wait spent
	// parked in a sender's coalescing batch window rather than in flight.
	TermBatchResidency
	// TermQueue is pre-handling time: submitted but not yet picked up by
	// the owner process's event loop.
	TermQueue
	// TermExec is handler execution time (broadcast fan-out, local
	// apply, respond).
	TermExec
	// TermSkewAdjust absorbs what the formulas call ε — clock-skew
	// padding — plus scheduling jitter on the real-time substrate. Signed:
	// it is the exact remainder that makes the terms sum to the measured
	// latency.
	TermSkewAdjust
	// NumTerms is the number of attribution terms.
	NumTerms
)

// String returns the term's canonical snake_case name.
func (t Term) String() string {
	switch t {
	case TermXWait:
		return "x_wait"
	case TermNetDelay:
		return "net_delay"
	case TermBatchResidency:
		return "batch_residency"
	case TermQueue:
		return "queue"
	case TermExec:
		return "exec"
	case TermSkewAdjust:
		return "skew_adjust"
	default:
		return fmt.Sprintf("Term(%d)", uint8(t))
	}
}

// Attribution is one operation's latency decomposition, indexed by Term,
// in virtual ticks.
type Attribution [NumTerms]int64

// Sum returns the total attributed latency — exactly the operation's
// measured respond−invoke by construction.
func (a Attribution) Sum() int64 {
	var s int64
	for _, v := range a {
		s += v
	}
	return s
}

// AttrParams carries the model parameters attribution splits waits by,
// in virtual ticks (mirrors simtime.Params without the import).
type AttrParams struct {
	D       int64
	U       int64
	Epsilon int64
	X       int64
}

// Tree is one operation's causal span tree: the root operation span with
// its recorded waypoints and any protocol-phase child spans.
type Tree struct {
	Span   int64 `json:"span"`
	Parent int64 `json:"parent"`
	// Op is the operation name for roots, the phase name for children.
	Op       string      `json:"op,omitempty"`
	Proc     int32       `json:"proc"`
	Start    int64       `json:"start"`
	End      int64       `json:"end"`
	Events   []SpanEvent `json:"events,omitempty"`
	Children []*Tree     `json:"children,omitempty"`

	done bool
	// root distinguishes operation roots from protocol-phase children: a
	// root's Parent may be a remote client-side span, so Parent == -1
	// cannot tell the two apart.
	root bool
}

// clone deep-copies the tree with events in canonical order.
func (t *Tree) clone() *Tree {
	out := *t
	out.Events = append([]SpanEvent(nil), t.Events...)
	sortEvents(out.Events)
	out.Children = make([]*Tree, len(t.Children))
	for i, c := range t.Children {
		out.Children[i] = c.clone()
	}
	sort.Slice(out.Children, func(i, j int) bool {
		a, b := out.Children[i], out.Children[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Span > b.Span
	})
	return &out
}

// sortEvents orders events canonically: by time, then process, then
// stage, then span. Recording order is already time-ordered per process;
// the canonical order additionally makes concurrently-recorded events
// from different processes deterministic for golden exports.
func sortEvents(evs []SpanEvent) {
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		return a.Span < b.Span
	})
}

// Collector is the span sink: it assembles complete operation trees and
// retains the last capacity of them in a ring — the flight recorder. A
// nil *Collector is how every layer spells "tracing off". Safe for
// concurrent use: a live cluster records from its scheduler goroutine
// while the serving layer reads.
//
// Attribution leans on the model's one-pending-operation-per-process
// rule: OpStart makes span the process's current span, and the engine
// stamps sends and timer registrations with CurrentSpan at the moment
// they happen — so a delivery or timer fire is attributed to the
// operation that caused it, even when it executes on another process or
// after the span moved on.
type Collector struct {
	mu      sync.Mutex
	live    map[int64]*Tree // open spans (roots and children), by span id
	order   []int64         // open roots in start order, for bounded eviction
	index   map[int64]*Tree // retained completed spans, for late events
	done    []*Tree         // completed-root ring, record order
	next    int
	wrapped bool
	dropped int64
	total   int64
	cur     map[int32]int64
}

// NewCollector builds a collector retaining the last capacity completed
// trees (capacity ≤ 0 selects 256). At most capacity root spans may be
// open at once; opening more evicts the oldest open root.
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = 256
	}
	return &Collector{
		live:  map[int64]*Tree{},
		index: map[int64]*Tree{},
		done:  make([]*Tree, capacity),
		cur:   map[int32]int64{},
	}
}

// OpStart opens a local root span (no causal parent).
func (c *Collector) OpStart(proc int32, span int64, op string, now int64) {
	c.OpStartCtx(proc, span, -1, op, now)
}

// OpStartCtx opens a root span, makes it the process's current span and
// records the causal parent (a client-side span propagated over the
// wire, or -1).
func (c *Collector) OpStartCtx(proc int32, span, parent int64, op string, now int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &Tree{Span: span, Parent: parent, Op: op, Proc: proc, Start: now, End: -1, root: true}
	t.Events = append(t.Events, SpanEvent{Span: span, Stage: StageInvoke, Proc: proc, Time: now, Op: op})
	c.live[span] = t
	c.order = append(c.order, span)
	c.cur[proc] = span
	// Bound the open set: a span that never completes (crashed owner)
	// must not pin memory forever. OpEnd takes completed roots out of
	// order, so only roots that are still open count against the bound.
	for len(c.order) > len(c.done) {
		victim := c.order[0]
		c.order = c.order[1:]
		if v, ok := c.live[victim]; ok {
			c.evictLive(v)
			c.dropped++
		}
	}
}

// evictLive removes an open root and its children from the live set.
func (c *Collector) evictLive(t *Tree) {
	delete(c.live, t.Span)
	for _, child := range t.Children {
		delete(c.live, child.Span)
	}
}

// Event appends a waypoint to its span, live or recently completed (late
// peer deliveries land after the owner responded). Events for unknown
// spans — span -1, or spans already evicted — are dropped.
func (c *Collector) Event(span int64, stage Stage, proc int32, now int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.append(SpanEvent{Span: span, Stage: stage, Proc: proc, Time: now})
}

// Deliver is Event(span, StageDeliver, proc, now) plus delivery
// accounting: the send tick and the batch-window residency portion of
// the delay (0 for unbatched deliveries).
func (c *Collector) Deliver(span int64, proc int32, now, sent, residency int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.append(SpanEvent{Span: span, Stage: StageDeliver, Proc: proc, Time: now,
		Sent: sent, Residency: residency})
}

func (c *Collector) append(ev SpanEvent) {
	t, ok := c.live[ev.Span]
	if !ok {
		if t, ok = c.index[ev.Span]; !ok {
			return
		}
	}
	t.Events = append(t.Events, ev)
}

// Child opens a named child span (e.g. a quorum phase) under parent. A
// child of an unknown parent is dropped.
func (c *Collector) Child(proc int32, span, parent int64, name string, now int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pt, ok := c.live[parent]
	if !ok {
		if pt, ok = c.index[parent]; !ok {
			return
		}
	}
	t := &Tree{Span: span, Parent: parent, Op: name, Proc: proc, Start: now, End: -1}
	pt.Children = append(pt.Children, t)
	if pt.done {
		c.index[span] = t
	} else {
		c.live[span] = t
	}
}

// ChildEnd closes a child span. Closing a child of an
// already-completed root (a quorum phase whose last ack straggled in
// after the coordinator responded) still lands on the retained tree.
func (c *Collector) ChildEnd(proc int32, span int64, now int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.live[span]
	if !ok {
		if t, ok = c.index[span]; !ok || t == nil {
			return
		}
	}
	if t.root {
		return // only OpEnd completes a root
	}
	t.End = now
	t.done = true
}

// OpEnd completes the root span, clears the process's current span and
// moves the tree into the flight-recorder ring.
func (c *Collector) OpEnd(proc int32, span int64, now int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.cur, proc)
	t, ok := c.live[span]
	if !ok {
		return
	}
	t.Events = append(t.Events, SpanEvent{Span: span, Stage: StageRespond, Proc: proc, Time: now})
	t.End = now
	t.done = true
	// The tree stays indexed while retained, so deliveries landing on
	// peers after the owner responded (a mutator's broadcast outliving
	// its X-wait) still attach to the completed tree.
	delete(c.live, span)
	for i, open := range c.order {
		if open == span {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.index[span] = t
	for _, child := range t.Children {
		delete(c.live, child.Span)
		c.index[child.Span] = child
	}
	if old := c.done[c.next]; old != nil {
		delete(c.index, old.Span)
		for _, child := range old.Children {
			delete(c.index, child.Span)
		}
		c.dropped++
	}
	c.done[c.next] = t
	c.next++
	c.total++
	if c.next == len(c.done) {
		c.next = 0
		c.wrapped = true
	}
}

// CurrentSpan returns the process's current span, or -1.
func (c *Collector) CurrentSpan(proc int32) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if span, ok := c.cur[proc]; ok {
		return span
	}
	return -1
}

// Dropped returns how many trees were discarded: completed trees
// overwritten by the ring plus open roots evicted by the live bound.
func (c *Collector) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Completed returns how many root spans have completed.
func (c *Collector) Completed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Trees returns deep copies of the retained completed trees, oldest
// first, with events and children in canonical deterministic order.
func (c *Collector) Trees() []*Tree {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*Tree
	appendFrom := func(src []*Tree) {
		for _, t := range src {
			if t != nil {
				out = append(out, t.clone())
			}
		}
	}
	if c.wrapped {
		appendFrom(c.done[c.next:])
	}
	appendFrom(c.done[:c.next])
	return out
}

// Attribute decomposes one completed operation's latency into terms.
// class is the operation's latency class ("AOP", "MOP", anything else is
// treated as unclassified); invoke is the measured invoke tick (the
// submission instant, which precedes the owner's StageInvoke by the
// inbox queue time). Returns false if the span is not retained or not
// complete. The returned terms sum exactly to end − invoke.
func (c *Collector) Attribute(span int64, class string, invoke int64, p AttrParams) (Attribution, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.index[span]
	if !ok || t == nil || !t.done || !t.root {
		return Attribution{}, false
	}
	return attribute(t, class, invoke, p), true
}

// attribute implements the decomposition on the owner-process timeline.
func attribute(t *Tree, class string, invoke int64, p AttrParams) Attribution {
	var a Attribution
	prev := invoke
	var wait int64
	for _, ev := range t.Events {
		if ev.Proc != t.Proc {
			continue // peer-side annotations are not on the owner timeline
		}
		if ev.Time > t.End {
			// The owner can keep receiving this operation's traffic after
			// responding (its own broadcast echo arrives up to d after an
			// early MOP respond); latency ends at the respond instant.
			continue
		}
		dt := ev.Time - prev
		prev = ev.Time
		switch ev.Stage {
		case StageInvoke:
			a[TermQueue] += dt
		case StageDeliver:
			res := ev.Residency
			if res < 0 {
				res = 0
			}
			if res > dt {
				res = dt
			}
			a[TermBatchResidency] += res
			a[TermNetDelay] += dt - res
		case StageTimer:
			wait += dt
		default: // StageBroadcast, StageRespond, StageDropped
			a[TermExec] += dt
		}
	}
	// Split the stabilization wait by the paper's formulas; the exact
	// remainder — the formulas' ε plus any real-substrate jitter — is
	// skew_adjust.
	var deliberate int64
	var deliberateTerm Term
	switch class {
	case "MOP":
		deliberate, deliberateTerm = p.X, TermXWait
	case "AOP":
		deliberate, deliberateTerm = p.D-p.X, TermNetDelay
	default:
		deliberate, deliberateTerm = p.D, TermNetDelay
	}
	if deliberate < 0 {
		deliberate = 0
	}
	if wait == 0 {
		deliberate = 0 // no timer ever fired (quorum path): nothing to split
	} else if deliberate > wait {
		deliberate = wait
	}
	a[deliberateTerm] += deliberate
	a[TermSkewAdjust] += wait - deliberate
	return a
}

// chromeEvent is one Chrome trace-event / Perfetto JSON entry.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   *int64         `json:"dur,omitempty"`
	PID   int64          `json:"pid"`
	TID   int64          `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders trees in the Chrome trace-event JSON format
// (the {"traceEvents": [...]} flavor), loadable by Perfetto and
// chrome://tracing: root and child spans as complete ("X") slices on
// their owner process's track, waypoints as thread-scoped instant
// events. Virtual ticks map one-to-one onto the format's microsecond
// timestamps. Output is deterministic given deterministic trees.
func WriteChromeTrace(w io.Writer, trees []*Tree) error {
	events := make([]chromeEvent, 0, len(trees)*4)
	var walk func(t *Tree, root int64, depth int)
	walk = func(t *Tree, root int64, depth int) {
		cat := "op"
		if depth > 0 {
			cat = "phase"
		}
		dur := t.End - t.Start
		ev := chromeEvent{Name: t.Op, Cat: cat, Phase: "X", TS: t.Start, Dur: &dur,
			PID: 0, TID: int64(t.Proc),
			Args: map[string]any{"span": t.Span, "parent": t.Parent}}
		events = append(events, ev)
		for _, sub := range t.Events {
			if sub.Stage == StageInvoke || sub.Stage == StageRespond {
				continue // endpoints are the slice itself
			}
			args := map[string]any{"span": sub.Span}
			if sub.Stage == StageDeliver && sub.Sent != 0 {
				args["sent"] = sub.Sent
				args["residency"] = sub.Residency
			}
			events = append(events, chromeEvent{Name: sub.Stage.String(), Cat: "waypoint",
				Phase: "i", TS: sub.Time, PID: 0, TID: int64(sub.Proc), Scope: "t", Args: args})
		}
		for _, child := range t.Children {
			walk(child, root, depth+1)
		}
	}
	for _, t := range trees {
		walk(t, t.Span, 0)
	}
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: events}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
