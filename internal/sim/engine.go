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

// event is one scheduled occurrence in the simulation. Events are value
// types stored inline in the engine's queue: scheduling an event never
// heap-allocates and popping one never chases a pointer.
type event struct {
	time simtime.Time
	seq  int64 // tie-break: FIFO among simultaneous events
	kind eventKind
	proc ProcID

	// evInvoke
	inv Invocation
	// evDeliver
	from     ProcID
	payload  any
	msgIndex int // index into trace.Msgs (-1 when message records are off)
	// evTimer
	timerID TimerID
	tag     any

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
func (k eventKind) rank() int {
	switch k {
	case evDeliver:
		return 0
	case evTimer:
		return 1
	default:
		return 2
	}
}

// eventBefore is the engine's total event order: (time, kind rank, seq).
// The property test in engine_order_test.go pins it against a
// container/heap oracle.
func eventBefore(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if ra, rb := a.kind.rank(), b.kind.rank(); ra != rb {
		return ra < rb
	}
	return a.seq < b.seq
}

// eventQueue is a value-typed 4-ary min-heap over eventBefore: no
// per-event allocation, no interface boxing, and half the depth of a
// binary heap (a 4-ary sift does up to three more comparisons per level
// over half as many cache lines, which wins on the engine's pop-heavy
// usage). The backing array is retained across Engine.Reset, so a reused
// engine schedules events with zero steady-state allocation.
type eventQueue struct {
	items []event
}

func (q *eventQueue) len() int { return len(q.items) }

// peek returns the minimum event without removing it. The pointer is
// valid only until the next push or pop.
func (q *eventQueue) peek() *event { return &q.items[0] }

// reset empties the queue, retaining capacity. Slots are zeroed so stale
// payload references do not pin memory.
func (q *eventQueue) reset() {
	clear(q.items)
	q.items = q.items[:0]
}

func (q *eventQueue) push(ev event) {
	q.items = append(q.items, ev)
	// Sift up.
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventBefore(&q.items[i], &q.items[parent]) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	top := q.items[0]
	n := len(q.items) - 1
	q.items[0] = q.items[n]
	q.items[n] = event{} // release payload references
	q.items = q.items[:n]
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
			if eventBefore(&q.items[c], &q.items[min]) {
				min = c
			}
		}
		if !eventBefore(&q.items[min], &q.items[i]) {
			break
		}
		q.items[i], q.items[min] = q.items[min], q.items[i]
		i = min
	}
	return top
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
// queue's backing array, the bookkeeping slices, and trace-capacity hints
// — the allocation profile of a reused engine is a handful of slice
// headers per run instead of a heap node per event.
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
	timerSeq int64
	timers   map[TimerID]struct{} // registered and neither fired nor canceled
	ops      []openOp             // per process
	crashes  []simtime.Time       // per-proc crash instants on the timeline (empty = no faults)
	drops    map[int64]bool       // send ordinals lost in transit
	trace    *Trace
	started  bool
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
	eng := &Engine{timers: map[TimerID]struct{}{}}
	if err := eng.Reset(params, offsets, net, nodes); err != nil {
		return nil, err
	}
	return eng, nil
}

// Reset rearms the engine for a fresh run with the given configuration,
// retaining the event queue's backing array, the bookkeeping slices, the
// per-process contexts, and capacity hints for the trace slices (which
// are preallocated to the previous run's sizes). The trace returned by
// the previous run is NOT recycled — it remains valid after Reset, so
// results that escaped to callers are never corrupted by engine reuse.
// OnRespond is cleared and the timeline returns to one step per tick;
// MaxSteps and the trace level are retained.
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
	e.seq, e.timerSeq, e.opSeq, e.msgCount = 0, 0, 0, 0
	clear(e.timers)
	e.crashes = e.crashes[:0]
	clear(e.drops)
	// Preallocate the fresh trace to the previous run's high-water sizes:
	// steady-state reuse pays one exact-size allocation per slice instead
	// of a geometric regrowth chain.
	var stepsHint, msgsHint, opsHint int
	if e.trace != nil {
		stepsHint, msgsHint, opsHint = len(e.trace.Steps), len(e.trace.Msgs), len(e.trace.Ops)
	}
	e.trace = &Trace{
		Params:  params,
		Offsets: append([]simtime.Duration(nil), offsets...),
		Steps:   make([]StepRecord, 0, stepsHint),
		Msgs:    make([]MsgRecord, 0, msgsHint),
		Ops:     make([]OpRecord, 0, opsHint),
	}
	e.started = false
	e.stepSig = fnvOffset
	e.OnRespond, e.metrics, e.tracer, e.handling = nil, nil, nil, -1
	if e.MaxSteps == 0 {
		e.MaxSteps = 10_000_000
	}
	return nil
}

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
func (e *Engine) Timers() int { return len(e.timers) }

// push schedules an event.
func (e *Engine) push(ev event) {
	ev.seq = e.seq
	e.seq++
	e.queue.push(ev)
	if e.metrics != nil && e.metrics.QueueMax != nil {
		e.metrics.QueueMax.Observe(int64(e.queue.len()))
	}
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
	e.push(event{time: at, kind: evInvoke, proc: p, inv: Invocation{SeqID: seqID, Op: op, Arg: arg}, span: parent})
	return seqID
}

// setTimer schedules a timer event after the given number of ticks. The
// timer is attributed to the registering process's pending operation (if
// any): the stabilization waits of Algorithm 1 are set while handling
// that operation's invoke or its messages.
func (e *Engine) setTimer(p ProcID, after simtime.Duration, tag any) TimerID {
	id := TimerID(e.timerSeq)
	e.timerSeq++
	e.timers[id] = struct{}{}
	span := int64(-1)
	if e.tracer != nil {
		span = e.spanFor(p)
	}
	e.push(event{time: e.now.Add(after * e.unit), kind: evTimer, proc: p, timerID: id, tag: tag, span: span})
	return id
}

// cancelTimer disarms a timer; its event is skipped when it surfaces.
// Canceling a timer that already fired or was already canceled finds no
// entry and leaves none.
func (e *Engine) cancelTimer(id TimerID) { delete(e.timers, id) }

// armed reports whether a queued timer event is still to fire.
func (e *Engine) armed(ev *event) bool {
	_, ok := e.timers[ev.timerID]
	return ok
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
	e.push(event{time: e.now.Add(delay * e.unit), kind: evDeliver, proc: to, from: from, payload: payload,
		msgIndex: msgIndex, span: span, sent: e.tick})
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
		ev := e.queue.pop()
		if e.dispatch(&ev, ev.time) {
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
		ev := e.queue.peek()
		if ev.kind != evTimer || e.armed(ev) {
			return ev.time, ev.proc
		}
		e.queue.pop()
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
	ev := e.queue.pop()
	return e.dispatch(&ev, now)
}

// Due returns how many events are scheduled for process p at or before
// now and not yet processed (canceled timers excluded): the backlog a
// wall clock has fallen behind by. It scans the queue, which on a live
// cluster holds a few events per operation in flight.
func (e *Engine) Due(p ProcID, now simtime.Time) int {
	n := 0
	for i := range e.queue.items {
		if ev := &e.queue.items[i]; ev.proc == p && ev.time <= now && (ev.kind != evTimer || e.armed(ev)) {
			n++
		}
	}
	return n
}

// dispatch hands one popped event to its node at instant now and reports
// whether the node took a step (canceled timers and events at a crashed
// process take none).
func (e *Engine) dispatch(ev *event, now simtime.Time) bool {
	if ev.kind == evTimer {
		if !e.armed(ev) {
			return false
		}
		delete(e.timers, ev.timerID)
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
			InvokeTime:  e.ticks(ev.time),
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
