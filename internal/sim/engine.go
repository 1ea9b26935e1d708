package sim

import (
	"fmt"

	"lintime/internal/obs"
	"lintime/internal/simtime"
)

// eventKind distinguishes scheduled event types.
type eventKind uint8

const (
	evInvoke eventKind = iota
	evDeliver
	evTimer
)

// event is the body of one scheduled occurrence. Bodies live in the
// queue's slab and never move while queued: the heap orders only their
// keys, so scheduling an event copies it nowhere and popping one copies
// 24 bytes, not the body.
type event struct {
	kind eventKind
	// armed is set while a timer is registered and neither fired nor
	// canceled.
	armed bool
	// gen is the slot's generation: bumped each time the slot is handed
	// out and kept when the body is cleared, so a TimerID naming an
	// earlier occupant of the slot no longer matches.
	gen  uint32
	proc ProcID

	// evInvoke
	inv Invocation
	// evDeliver
	from     ProcID
	payload  any
	msgIndex int // index into trace.Msgs (-1 when message records are off)
	// evTimer: the value handed back to OnTimer
	tag any

	// span is the tracing span (operation SeqID) the event is attributed
	// to: the sender's pending operation for deliveries, the registering
	// process's pending operation for timers, and for invocations the
	// causal parent the new operation's root span points back to. Only
	// stamped while a tracer is installed; -1 (or the zero value on
	// untraced runs) means unattributed. sent is the send tick of a
	// delivery, for delivery-latency accounting.
	span int64
	sent simtime.Time
}

// rank orders simultaneous events: message deliveries before timer
// expirations before invocations. Delivering messages first is load
// bearing for timestamp-ordered algorithms: a message carrying a smaller
// timestamp that arrives at exactly the instant a stabilization timer
// fires must be enqueued before the timer's drain runs, or replicas
// execute mutators in different orders (the u+ε wait of Algorithm 1 is
// tight at this boundary when d ≤ 2u+ε).
func (k eventKind) rank() uint8 {
	switch k {
	case evDeliver:
		return 0
	case evTimer:
		return timerRank
	default:
		return 2
	}
}

// timerRank is evTimer's rank: a key with it names a timer's body.
const timerRank = 1

// eventKey is what the heap orders: 24 pointer-free bytes, so sifting
// copies little and the collector never scans the heap's array. slot
// names the event's body in the slab.
type eventKey struct {
	time simtime.Time
	seq  int64 // tie-break: FIFO among simultaneous events of one rank
	slot int32
	rank uint8
}

// before is the engine's total event order: (time, kind rank, seq). The
// property test in engine_order_test.go pins it against a container/heap
// oracle.
func (a *eventKey) before(b *eventKey) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of event keys over a slab of event
// bodies with a free list. A 4-ary heap has half the depth of a binary
// one (a sift does up to three more comparisons per level over half as
// many cache lines, which wins on the engine's pop-heavy usage). Keys,
// slab and free list are retained across reset, so a reused engine
// schedules events with zero steady-state allocation.
type eventQueue struct {
	keys []eventKey
	slab []event
	free []int32 // slab slots not holding a queued or dispatching event
}

func (q *eventQueue) len() int { return len(q.keys) }

// peek returns the minimum key without removing it. The pointer is valid
// only until the next push or pop.
func (q *eventQueue) peek() *eventKey { return &q.keys[0] }

// body returns the event a key's slot holds. The pointer is valid only
// until the next push, which may grow the slab.
func (q *eventQueue) body(slot int32) *event { return &q.slab[slot] }

// reset empties the queue, retaining capacity. Every slot returns to the
// free list cleared but for its generation, so a TimerID from before the
// reset cancels nothing after it.
func (q *eventQueue) reset() {
	q.keys = q.keys[:0]
	q.free = q.free[:0]
	for i := len(q.slab) - 1; i >= 0; i-- {
		q.release(int32(i))
	}
}

// release clears a popped event's body, dropping its payload references,
// and returns its slot to the free list.
func (q *eventQueue) release(slot int32) {
	ev := &q.slab[slot]
	*ev = event{gen: ev.gen}
	q.free = append(q.free, slot)
}

// push queues an event of the given kind at (time, seq) and returns its
// slot and cleared body for the caller to fill.
func (q *eventQueue) push(time simtime.Time, seq int64, kind eventKind) (int32, *event) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot, q.free = q.free[n-1], q.free[:n-1]
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, event{})
	}
	ev := &q.slab[slot]
	// Generation 0 is never handed out, so the zero TimerID names no
	// timer.
	if ev.gen++; ev.gen == 0 {
		ev.gen = 1
	}
	ev.kind = kind
	q.keys = append(q.keys, eventKey{time: time, seq: seq, slot: slot, rank: kind.rank()})
	// Sift up.
	i := len(q.keys) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !q.keys[i].before(&q.keys[parent]) {
			break
		}
		q.keys[i], q.keys[parent] = q.keys[parent], q.keys[i]
		i = parent
	}
	return slot, ev
}

// pop removes and returns the minimum key. Its body stays in the slab
// until the caller releases the slot.
func (q *eventQueue) pop() eventKey {
	top := q.keys[0]
	n := len(q.keys) - 1
	q.keys[0] = q.keys[n]
	q.keys = q.keys[:n]
	// Sift down.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.keys[c].before(&q.keys[min]) {
				min = c
			}
		}
		if !q.keys[min].before(&q.keys[i]) {
			break
		}
		q.keys[i], q.keys[min] = q.keys[min], q.keys[i]
		i = min
	}
	return top
}

// handle names the timer in slot by the slot's current generation.
func (q *eventQueue) handle(slot int32) TimerID {
	return TimerID{slot: slot, gen: q.slab[slot].gen}
}

// timer returns the body a TimerID names while that timer is still armed,
// or nil: for the zero TimerID, a fired or canceled timer, and a handle
// whose slot has since been handed to another event.
func (q *eventQueue) timer(id TimerID) *event {
	if id.gen == 0 || int(id.slot) >= len(q.slab) {
		return nil
	}
	if ev := &q.slab[id.slot]; ev.gen == id.gen && ev.armed {
		return ev
	}
	return nil
}

// TraceLevel selects how much of a run the engine records. Every level
// produces identical executions (event order, responses, latencies); the
// levels only drop record-keeping the caller will never read.
type TraceLevel int

const (
	// TraceFull records Steps, Msgs and Ops — everything the shifting
	// machinery, the diagram renderer, and CheckAdmissible's
	// unreceived-message check can ask for. The default.
	TraceFull TraceLevel = iota
	// TraceOps skips the per-process step views (Trace.Steps) but keeps
	// Msgs and Ops: enough for latency statistics, the linearizability
	// checker, delay-admissibility checks on complete runs, and the
	// fuzzer's event-ordering signatures (which come from the engine's
	// running step hash, not the Steps slice).
	TraceOps
	// TraceOff additionally skips message records (Trace.Msgs); only Ops
	// are kept.
	TraceOff
	// TraceNone keeps nothing: a completed operation is handed to
	// OnRespond and forgotten, so a run of unbounded length (a live
	// cluster) holds constant memory.
	TraceNone
)

// fnvOffset/fnvPrime are the FNV-1a 64-bit parameters; the engine
// maintains a running FNV-1a hash over the processed-event sequence so
// consumers (the fuzzer's coverage signatures) need not re-walk a
// recorded Steps slice.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// openOp is the operation pending at one process (the model allows one).
type openOp struct {
	rec   OpRecord
	index int // position in trace.Ops, -1 when operations are not retained
	open  bool
}

// Engine is the one event core both clocks run on: a deterministic
// scheduler of the model's three event kinds over n nodes. Events at the
// same instant are processed deliveries first, then timers, then
// invocations, and in scheduling order within a kind, so runs are fully
// reproducible.
//
// Two drivers feed it. RunUntil is the virtual clock: it jumps to each
// event's own time. Step is the wall clock (internal/rtnet): the caller
// sleeps until Next and passes the time it measured on waking. The
// engine's timeline counts unit steps per virtual tick — 1 under
// RunUntil, the tick's length in nanoseconds on the wall clock, so no
// wait is rounded to a tick boundary — and everything a node, a tracer or
// a metric sees is converted back to ticks.
//
// An Engine may be reused across runs via Reset, which retains the event
// queue's keys, slab and free list, the bookkeeping slices, and
// trace-capacity hints — the allocation profile of a reused engine is a
// handful of slice headers per run instead of a heap node per event, and
// nothing at all when the caller Recycles each trace it is done with.
type Engine struct {
	params  simtime.Params
	offsets []simtime.Duration
	net     Network
	nodes   []Node

	unit     simtime.Duration // timeline steps per tick
	now      simtime.Time     // timeline instant of the event being dispatched
	tick     simtime.Time     // now in ticks
	queue    eventQueue
	ctxs     []engineCtx // one reusable Context per process
	seq      int64
	opSeq    int64
	msgCount int64
	timers   int            // registered and neither fired nor canceled
	ops      []openOp       // per process
	crashes  []simtime.Time // per-proc crash instants on the timeline (empty = no faults)
	drops    map[int64]bool // send ordinals lost in transit
	trace    *Trace
	started  bool
	recycle  bool // Recycle was called: Reset reuses trace
	level    TraceLevel
	stepSig  uint64 // running FNV-1a over (kind, proc) of processed events

	// metrics, when non-nil, receives live engine counters; tracer, when
	// non-nil, receives span waypoints. Both default off: the hot loop
	// pays one predictable nil branch per event and allocates nothing
	// (TestEngineEventsAllocateNothing).
	metrics *EngineMetrics
	tracer  *obs.Collector
	// handling is the span of the event currently being dispatched (-1
	// outside a handler). While a handler for span S runs, sends and timer
	// registrations it makes inherit S — this is what attributes a quorum
	// replica's ack to the coordinator's operation rather than to the
	// replica's own (unrelated) pending span.
	handling int64

	// OnRespond, if non-nil, is called after every operation response with
	// the completed record. Handlers may schedule further invocations (at
	// or after the current time) — this is how closed-loop workloads run.
	OnRespond func(rec OpRecord)

	// MaxSteps bounds the number of events one RunUntil call processes, as
	// a runaway guard.
	MaxSteps int
}

// NewEngine builds an engine. offsets must have one entry per node and
// respect the skew bound ε; net provides message delays.
func NewEngine(params simtime.Params, offsets []simtime.Duration, net Network, nodes []Node) (*Engine, error) {
	eng := &Engine{}
	if err := eng.Reset(params, offsets, net, nodes); err != nil {
		return nil, err
	}
	return eng, nil
}

// Reset rearms the engine for a fresh run with the given configuration,
// retaining the event queue's keys, slab and free list (so timer handles
// from the previous run stay stale), the bookkeeping slices, the
// per-process contexts, and capacity hints for the trace slices (which
// are preallocated to the previous run's sizes). The trace returned by
// the previous run is recycled only after Recycle: otherwise it remains
// valid after Reset, so results that escaped to callers are never
// corrupted by engine reuse. OnRespond is cleared and the timeline
// returns to one step per tick; MaxSteps and the trace level are
// retained.
func (e *Engine) Reset(params simtime.Params, offsets []simtime.Duration, net Network, nodes []Node) error {
	if err := params.Validate(); err != nil {
		return err
	}
	if len(nodes) != params.N {
		return fmt.Errorf("sim: %d nodes for N=%d", len(nodes), params.N)
	}
	if len(offsets) != params.N {
		return fmt.Errorf("sim: %d offsets for N=%d", len(offsets), params.N)
	}
	if err := ValidateOffsets(offsets, params.Epsilon); err != nil {
		return err
	}
	e.params = params
	e.offsets = append(e.offsets[:0], offsets...)
	e.net = net
	e.nodes = nodes
	e.unit, e.now, e.tick = 1, 0, 0
	e.queue.reset()
	if cap(e.ctxs) < params.N {
		e.ctxs = make([]engineCtx, params.N)
		e.ops = make([]openOp, params.N)
	}
	e.ctxs, e.ops = e.ctxs[:params.N], e.ops[:params.N]
	for p := range e.ctxs {
		e.ctxs[p] = engineCtx{eng: e, proc: ProcID(p)}
		e.ops[p] = openOp{}
	}
	e.seq, e.opSeq, e.msgCount, e.timers = 0, 0, 0, 0
	e.crashes = e.crashes[:0]
	clear(e.drops)
	if tr := e.trace; e.recycle {
		// Nothing references the last trace: truncate and reuse it.
		*tr = Trace{Params: params, Offsets: append(tr.Offsets[:0], offsets...),
			Steps: tr.Steps[:0], Msgs: tr.Msgs[:0], Ops: tr.Ops[:0]}
		e.recycle = false
	} else {
		// Preallocate the fresh trace to the previous run's high-water
		// sizes: steady-state reuse pays one exact-size allocation per
		// slice instead of a geometric regrowth chain.
		var stepsHint, msgsHint, opsHint int
		if tr != nil {
			stepsHint, msgsHint, opsHint = len(tr.Steps), len(tr.Msgs), len(tr.Ops)
		}
		e.trace = &Trace{
			Params:  params,
			Offsets: append([]simtime.Duration(nil), offsets...),
			Steps:   make([]StepRecord, 0, stepsHint),
			Msgs:    make([]MsgRecord, 0, msgsHint),
			Ops:     make([]OpRecord, 0, opsHint),
		}
	}
	e.started = false
	e.stepSig = fnvOffset
	e.OnRespond, e.metrics, e.tracer, e.handling = nil, nil, nil, -1
	if e.MaxSteps == 0 {
		e.MaxSteps = 10_000_000
	}
	return nil
}

// Recycle declares that nothing references the last run's trace any
// more: the next Reset truncates its slices and hands the same trace out
// again instead of allocating one. Callers that let traces escape (the
// wall clock, harness.Run) never call it.
func (e *Engine) Recycle() { e.recycle = e.trace != nil }

// SetTraceLevel selects how much of the run is recorded (default
// TraceFull). Must be called before the first event is processed.
func (e *Engine) SetTraceLevel(level TraceLevel) {
	if e.started {
		panic("sim: SetTraceLevel after the run started")
	}
	e.level = level
}

// SetTickUnit sets how many timeline steps make one virtual tick (default
// 1). The wall clock passes the tick's length in nanoseconds: Step and
// Next then speak nanoseconds since the run began, while nodes, tracers,
// metrics and operation records keep seeing ticks. Must be called before
// anything is scheduled.
func (e *Engine) SetTickUnit(unit simtime.Duration) {
	if e.started || e.queue.len() > 0 || unit < 1 {
		panic("sim: SetTickUnit needs a positive unit and an engine nothing was scheduled on")
	}
	e.unit = unit
}

// ticks converts a timeline instant to virtual ticks.
func (e *Engine) ticks(t simtime.Time) simtime.Time {
	if e.unit == 1 {
		return t
	}
	return t / simtime.Time(e.unit)
}

// EngineMetrics is the live-counter sink an engine reports into. Every
// field is optional. Instruments are shared obs primitives, so several
// engines may aggregate into one set.
type EngineMetrics struct {
	Events     *obs.Counter // events dispatched (after canceled-timer and crash skips)
	QueueMax   *obs.Max     // event-queue length high-water mark
	Delivered  *obs.Counter // messages handed to a node
	TimerFires *obs.Counter // timer events handed to a node
	MsgLatency *obs.Hist    // observed delivery delay in ticks, against the [d-u, d] envelope
	Crashes    *obs.Counter // processes crashed, by fault plan or by Crash
	CrashDrops *obs.Counter // deliveries discarded because the receiver had crashed
}

func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// SetMetrics installs the engine's metric sink (nil disables, the
// default). Cleared by Reset, like OnRespond, so pooled engines never
// report into a previous owner's instruments.
func (e *Engine) SetMetrics(m *EngineMetrics) { e.metrics = m }

// SetTracer installs the span sink (nil disables, the default). Cleared
// by Reset. Spans are keyed by operation SeqID; deliveries and timer
// fires are attributed to the operation pending at the
// sending/registering process when the message or timer was created.
func (e *Engine) SetTracer(t *obs.Collector) { e.tracer = t }

// Params returns the engine's model parameters.
func (e *Engine) Params() simtime.Params { return e.params }

// Now returns the current real time in ticks.
func (e *Engine) Now() simtime.Time { return e.tick }

// Trace returns the (live) trace of the run.
func (e *Engine) Trace() *Trace { return e.trace }

// StepSignature returns the FNV-1a hash of the processed-event sequence
// so far: for each event, the bytes (kind, proc) in processing order —
// byte-for-byte the prefix the fuzzer's coverage signature hashes from
// Trace.Steps. Maintained at every trace level, so signature-driven
// exploration can run with step recording off.
func (e *Engine) StepSignature() uint64 { return e.stepSig }

// QueueLen returns the number of scheduled events not yet processed
// (including canceled timers that have not yet been skipped).
func (e *Engine) QueueLen() int { return e.queue.len() }

// Timers returns the number of timers registered and neither fired nor
// canceled.
func (e *Engine) Timers() int { return e.timers }

// push schedules an event of the given kind at instant at of the timeline
// and returns its slot and body for the caller to fill.
func (e *Engine) push(at simtime.Time, kind eventKind) (int32, *event) {
	slot, ev := e.queue.push(at, e.seq, kind)
	e.seq++
	if e.metrics != nil && e.metrics.QueueMax != nil {
		e.metrics.QueueMax.Observe(int64(e.queue.len()))
	}
	return slot, ev
}

// InvokeAt schedules an operation invocation at process p at the given
// instant of the timeline (which must not be in the past) and returns its
// SeqID.
func (e *Engine) InvokeAt(p ProcID, at simtime.Time, op string, arg any) int64 {
	return e.InvokeAtTraced(p, at, op, arg, -1)
}

// InvokeAtTraced is InvokeAt carrying a causal parent span: the
// client-side span (propagated over the wire protocols) the new
// operation's root span points back to. Ignored while tracing is off; -1
// makes a local root.
func (e *Engine) InvokeAtTraced(p ProcID, at simtime.Time, op string, arg any, parent int64) int64 {
	if at < e.now {
		panic(fmt.Sprintf("sim: invocation at %v is in the past (now %v)", at, e.now))
	}
	seqID := e.opSeq
	e.opSeq++
	_, ev := e.push(at, evInvoke)
	ev.proc, ev.inv, ev.span = p, Invocation{SeqID: seqID, Op: op, Arg: arg}, parent
	return seqID
}

// setTimer schedules a timer event after the given number of ticks. The
// timer is attributed to the registering process's pending operation (if
// any): the stabilization waits of Algorithm 1 are set while handling
// that operation's invoke or its messages.
func (e *Engine) setTimer(p ProcID, after simtime.Duration, tag any) TimerID {
	span := int64(-1)
	if e.tracer != nil {
		span = e.spanFor(p)
	}
	slot, ev := e.push(e.now.Add(after*e.unit), evTimer)
	ev.proc, ev.tag, ev.span, ev.armed = p, tag, span, true
	e.timers++
	return e.queue.handle(slot)
}

// cancelTimer disarms a timer; its event is skipped when it surfaces.
// Canceling a timer that already fired or was already canceled finds
// nothing armed under the handle and changes nothing.
func (e *Engine) cancelTimer(id TimerID) {
	if ev := e.queue.timer(id); ev != nil {
		e.disarm(ev)
	}
}

// disarm clears an armed timer's bit and takes it off the count.
func (e *Engine) disarm(ev *event) {
	ev.armed = false
	e.timers--
}

// live reports whether a key's event is still to be dispatched: anything
// but a disarmed timer.
func (e *Engine) live(k *eventKey) bool {
	return k.rank != timerRank || e.queue.body(k.slot).armed
}

// spanFor resolves the span a send or timer registration should be
// attributed to: the span being handled right now (quorum acks, relayed
// messages), falling back to the process's pending operation. Only
// called while tracing.
func (e *Engine) spanFor(p ProcID) int64 {
	if e.handling >= 0 {
		return e.handling
	}
	return e.tracer.CurrentSpan(int32(p))
}

// send schedules message delivery per the network's delay. A send whose
// ordinal is in the fault plan's drop set is recorded (Dropped, never
// received) but no delivery is scheduled and the network is never asked
// for a delay — dropped ordinals consume their slot in the global
// message count, so explicit delay vectors stay index-aligned.
func (e *Engine) send(from, to ProcID, payload any) {
	dropped := len(e.drops) > 0 && e.drops[e.msgCount]
	var delay simtime.Duration
	recv := simtime.Infinity
	if !dropped {
		delay = e.net.Delay(from, to, e.tick, e.msgCount)
		if delay < e.params.MinDelay() || delay > e.params.D {
			panic(fmt.Sprintf("sim: network produced delay %v outside [%v, %v]",
				delay, e.params.MinDelay(), e.params.D))
		}
		recv = e.tick.Add(delay)
	}
	e.msgCount++
	msgIndex := -1
	if e.level <= TraceOps {
		msgIndex = len(e.trace.Msgs)
		e.trace.Msgs = append(e.trace.Msgs, MsgRecord{ID: e.msgCount, From: from, To: to,
			SendTime: e.tick, RecvTime: recv, Payload: payload, Dropped: dropped})
	}
	if dropped {
		return
	}
	span := int64(-1)
	if e.tracer != nil {
		span = e.spanFor(from)
		e.tracer.Event(span, obs.StageBroadcast, int32(from), int64(e.tick))
	}
	_, ev := e.push(e.now.Add(delay*e.unit), evDeliver)
	ev.proc, ev.from, ev.payload, ev.msgIndex, ev.span, ev.sent = to, from, payload, msgIndex, span, e.tick
}

// respond records the response for a pending invocation.
func (e *Engine) respond(p ProcID, seqID int64, ret any) {
	o := &e.ops[p]
	if !o.open || o.rec.SeqID != seqID {
		panic(fmt.Sprintf("sim: p%d responded to op %d which is not pending", p, seqID))
	}
	o.open = false
	o.rec.Ret, o.rec.RespondTime = ret, e.tick
	if o.index >= 0 {
		e.trace.Ops[o.index] = o.rec
	}
	if e.tracer != nil {
		e.tracer.OpEnd(int32(p), seqID, int64(e.tick))
	}
	if e.OnRespond != nil {
		e.OnRespond(o.rec)
	}
}

// begin runs every node's Init once, before the first event.
func (e *Engine) begin() {
	if !e.started {
		e.started = true
		for p := range e.nodes {
			e.nodes[p].Init(&e.ctxs[p])
		}
	}
}

// Run processes events until the queue drains (eventual quiescence) and
// returns the trace.
func (e *Engine) Run() *Trace { return e.RunUntil(simtime.Infinity) }

// RunUntil is the virtual clock: it processes events with time ≤ limit,
// each at its own scheduled instant, and returns the trace.
func (e *Engine) RunUntil(limit simtime.Time) *Trace {
	e.begin()
	steps := 0
	for e.queue.len() > 0 && e.queue.peek().time <= limit {
		if k := e.queue.pop(); e.dispatch(k, k.time) {
			if steps++; steps > e.MaxSteps {
				panic(fmt.Sprintf("sim: exceeded MaxSteps=%d (runaway algorithm?)", e.MaxSteps))
			}
		}
	}
	return e.trace
}

// Next reports the instant and process of the earliest scheduled event,
// or simtime.Infinity when nothing is scheduled. Canceled timers at the
// head of the queue are discarded first, so a wall clock sleeping until
// Next never wakes for one.
func (e *Engine) Next() (simtime.Time, ProcID) {
	for e.queue.len() > 0 {
		if k := e.queue.peek(); e.live(k) {
			return k.time, e.queue.body(k.slot).proc
		}
		e.queue.release(e.queue.pop().slot)
	}
	return simtime.Infinity, -1
}

// Step is the wall clock: it processes the earliest scheduled event at
// the instant now the caller measured, which is at or after the event's
// own (the caller slept until Next; waking late is the host's lateness,
// and the run records it rather than the schedule). It reports whether a
// node handled the event. Events are taken in the same (time, kind, seq)
// order as under RunUntil, whatever instant they are dispatched at.
func (e *Engine) Step(now simtime.Time) bool {
	e.begin()
	return e.dispatch(e.queue.pop(), now)
}

// Due returns how many events are scheduled for process p at or before
// now and not yet processed (canceled timers excluded): the backlog a
// wall clock has fallen behind by. It scans the queue's keys, which on a
// live cluster number a few per operation in flight.
func (e *Engine) Due(p ProcID, now simtime.Time) int {
	n := 0
	for i := range e.queue.keys {
		if k := &e.queue.keys[i]; k.time <= now && e.queue.body(k.slot).proc == p && e.live(k) {
			n++
		}
	}
	return n
}

// dispatch hands one popped event to its node at instant now, releases
// its slot, and reports whether the node took a step (canceled timers and
// events at a crashed process take none). The body pointer is not read
// once the node's handler is called: a push from the handler may grow
// the slab.
func (e *Engine) dispatch(k eventKey, now simtime.Time) bool {
	defer e.queue.release(k.slot)
	ev := e.queue.body(k.slot)
	if ev.kind == evTimer {
		if !ev.armed {
			return false
		}
		e.disarm(ev)
	}
	if e.crashedAt(ev.proc, now) {
		// Crash-stop: the process takes no step. A suppressed delivery is
		// marked Dropped (its scheduled RecvTime is kept as the drop
		// instant); suppressed timers and invocations vanish — in
		// particular a suppressed invocation leaves NO OpRecord, because an
		// operation the process never started must not be linearizable as
		// pending.
		if ev.kind == evDeliver {
			if ev.msgIndex >= 0 {
				e.trace.Msgs[ev.msgIndex].Dropped = true
			}
			if e.metrics != nil {
				inc(e.metrics.CrashDrops)
			}
			if e.tracer != nil {
				e.tracer.Event(ev.span, obs.StageDropped, int32(ev.proc), int64(e.ticks(now)))
			}
		}
		return false
	}
	if now < e.now {
		panic("sim: time went backwards")
	}
	e.now, e.tick = now, e.ticks(now)
	e.stepSig = (e.stepSig ^ uint64(byte(ev.kind))) * fnvPrime
	e.stepSig = (e.stepSig ^ uint64(byte(ev.proc))) * fnvPrime
	if m := e.metrics; m != nil {
		inc(m.Events)
		if ev.kind == evTimer {
			inc(m.TimerFires)
		} else if ev.kind == evDeliver {
			inc(m.Delivered)
			if m.MsgLatency != nil {
				m.MsgLatency.Add(int64(e.tick.Sub(ev.sent)))
			}
		}
	}
	if e.level == TraceFull {
		// StepKind numbers the three event kinds as eventKind does.
		e.trace.Steps = append(e.trace.Steps, StepRecord{Proc: ev.proc, Time: e.tick, Kind: StepKind(ev.kind)})
	}
	ctx := &e.ctxs[ev.proc]
	switch ev.kind {
	case evInvoke:
		o := &e.ops[ev.proc]
		if o.open {
			panic(fmt.Sprintf("sim: p%d invoked op %d while op %d pending (user constraint violated)",
				ev.proc, ev.inv.SeqID, o.rec.SeqID))
		}
		// The operation begins when it was invoked: on the wall clock that
		// is the instant the caller measured, before this dispatch.
		*o = openOp{open: true, index: -1, rec: OpRecord{
			Proc:        ev.proc,
			SeqID:       ev.inv.SeqID,
			Op:          ev.inv.Op,
			Arg:         ev.inv.Arg,
			InvokeTime:  e.ticks(k.time),
			RespondTime: simtime.Infinity,
		}}
		if e.level <= TraceOff {
			o.index = len(e.trace.Ops)
			e.trace.Ops = append(e.trace.Ops, o.rec)
		}
		if e.tracer != nil {
			e.handling = ev.inv.SeqID
			e.tracer.OpStartCtx(int32(ev.proc), ev.inv.SeqID, ev.span, ev.inv.Op, int64(e.tick))
		}
		e.nodes[ev.proc].OnInvoke(ctx, ev.inv)
	case evDeliver:
		if e.tracer != nil {
			e.handling = ev.span
			e.tracer.Deliver(ev.span, int32(ev.proc), int64(e.tick), int64(ev.sent), 0)
		}
		e.nodes[ev.proc].OnMessage(ctx, ev.from, ev.payload)
	case evTimer:
		if e.tracer != nil {
			e.handling = ev.span
			e.tracer.Event(ev.span, obs.StageTimer, int32(ev.proc), int64(e.tick))
		}
		e.nodes[ev.proc].OnTimer(ctx, ev.tag)
	}
	e.handling = -1
	return true
}
