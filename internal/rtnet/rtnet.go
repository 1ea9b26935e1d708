// Package rtnet runs the same algorithm nodes as the virtual-time
// simulator in *real time*. A Cluster is a wall-clock shell around one
// sim.Engine: a single scheduler goroutine sleeps until the engine's next
// event is due and dispatches it at the instant it measured on waking. On
// Linux the sleep is a futex wait with a nanosecond timeout
// (sleep_linux.go), elsewhere a time.Timer (sleep_other.go); the build tag
// alone chooses. An invocation is dispatched by its own caller, which
// wakes the scheduler only when that moved the next deadline forward.
// Message delays are real waits drawn from [d-u, d] virtual ticks, timers
// are real waits, and local clocks are wall-clock readings plus a
// constant per-process offset. Scheduling, crash suppression, tracing and
// delivery accounting are the engine's; nothing is implemented twice.
//
// The substrate exists to demonstrate that Algorithm 1 is a practical
// message-passing protocol, not just a simulation artifact: the exact
// same core.Replica values run here, with latencies that approximate the
// tick-exact virtual-time values up to scheduling jitter. The tick
// duration scales virtual ticks to wall time; choose it large enough that
// the dispatch lateness the cluster measures (rtnet_wake_late_us: on Linux
// ≈ 0.1 ms of hrtimer slack plus a thread wake-up) stays below u/2 ticks.
package rtnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lintime/internal/classify"
	"lintime/internal/harness"
	"lintime/internal/obs"
	"lintime/internal/sim"
	"lintime/internal/simtime"
)

// DefaultInboxDepth is the per-process backlog bound used when
// Params.InboxDepth is zero.
const DefaultInboxDepth = 1024

// Params configures a real-time cluster: the model parameters plus the
// substrate's own knob.
type Params struct {
	simtime.Params

	// InboxDepth bounds each process's backlog: the events that are due
	// and that the scheduler has not yet dispatched (default
	// DefaultInboxDepth). A backlog above the bound is a cluster failure
	// (InboxOverflowError), never a silent stall: the scheduler has fallen
	// so far behind the wall clock that every delay it realizes is late.
	InboxDepth int
}

// ErrStopped is returned by Invoke/Call after the cluster has stopped
// without a recorded failure.
var ErrStopped = errors.New("rtnet: cluster stopped")

// ErrCrashed is returned by Invoke/Call when the chosen process has been
// crashed with Crash. A crashed process is not a cluster failure: the
// rest of the cluster keeps running (that is the point of injecting the
// crash under a fault-tolerant backend).
var ErrCrashed = errors.New("rtnet: process crashed")

// InboxOverflowError reports that a process's backlog of due events
// exceeded the bound. It stops the cluster: overflow means the scheduler
// has fallen hopelessly behind, and latency numbers from such a run are
// meaningless.
type InboxOverflowError struct {
	Proc  sim.ProcID
	Depth int
}

func (e *InboxOverflowError) Error() string {
	return fmt.Sprintf("rtnet: inbox of p%d overflowed (depth %d)", e.Proc, e.Depth)
}

// Response is the completed result of an asynchronous invocation.
type Response struct {
	Proc    sim.ProcID // process the operation was invoked at
	Seq     int64      // cluster-unique invocation id
	Op      string
	Arg     any
	Ret     any
	Class   classify.Class // operation class (Mixed unless SetClasses was called)
	Invoke  simtime.Time   // virtual ticks since cluster start
	Respond simtime.Time
}

// Latency returns the observed virtual-tick latency.
func (r Response) Latency() simtime.Duration { return r.Respond.Sub(r.Invoke) }

// lowerHalf is the cluster's sim.Network. Every delay lies in the lower
// half [d-u, d-u/2] of the admissible window: the host only ever adds
// latency, so sampling low keeps what is actually realized within
// [d-u, d]. Without a rule, process i draws from its own stream seeded by
// DeriveSeed(seed, "rtnet/send/p<i>"), so the delays a process sees do
// not depend on how the others are scheduled; with one (UseNetwork) the
// rule's delay is clamped into the band.
type lowerHalf struct {
	lo, hi simtime.Duration
	rngs   []*rand.Rand
	rule   sim.Network
}

func (n *lowerHalf) Delay(from, to sim.ProcID, sent simtime.Time, msgIndex int64) simtime.Duration {
	if n.rule == nil {
		return n.lo + simtime.Duration(n.rngs[from].Int63n(int64(n.hi-n.lo)+1))
	}
	return min(max(n.rule.Delay(from, to, sent, msgIndex), n.lo), n.hi)
}

// pendingCall is an invocation that has not responded.
type pendingCall struct {
	proc sim.ProcID
	done chan Response // closed without a value if the call is abandoned
}

// Cluster runs n nodes in real time.
type Cluster struct {
	depth   int
	tick    time.Duration
	offsets []simtime.Duration
	nodes   []sim.Node
	net     *lowerHalf
	classes map[string]classify.Class // read-only after Start
	metrics *Metrics

	sleep sleeper       // the scheduler's interruptible sleep: wait and poke
	done  chan struct{} // closed when the scheduler goroutine has exited

	// mu guards the engine and everything below. Node handlers run under
	// it (the engine is single-threaded), as do Inspect callbacks; neither
	// may call back into the Cluster.
	mu           sync.Mutex
	eng          *sim.Engine
	start        time.Time    // zero until Start; not written after it
	sleepUntil   simtime.Time // the deadline the scheduler last went to sleep toward
	stopped      bool
	err          error // first failure (inbox overflow); sticky
	overflows    int64
	overflowProc int32 // process of the last inbox overflow; -1 if none
	pending      map[int64]pendingCall
}

// Metrics is the substrate's instrumentation hook set: the engine's
// counters plus the three the wall clock adds. All fields it sets must be
// non-nil when installed (use NewMetrics); a nil *Metrics (the default)
// disables instrumentation.
type Metrics struct {
	sim.EngineMetrics
	Overflows *obs.Counter // inbox overflows (any value > 0 means the run failed)
	InboxMax  *obs.Max     // high-water mark of any process's backlog, observed at dispatch
	WakeLate  *obs.Hist    // µs from an event's deadline to its dispatch (0 for an invocation its caller dispatched)
}

// NewMetrics builds the substrate's instrument set on a registry. The
// message-latency histogram is sized to hold the whole admissible
// envelope [d-u, d] plus generous room for scheduling jitter above it.
// Optional labels come as key, value pairs and are folded into every
// instrument name (obs.WithLabel); the shard-set uses them to keep each
// shard cluster's substrate metrics distinct on one merged endpoint.
func NewMetrics(reg *obs.Registry, p simtime.Params, labels ...string) *Metrics {
	limit := 4 * int(p.D)
	if limit < 16 {
		limit = 16
	}
	name := func(base string) string {
		for i := 0; i+1 < len(labels); i += 2 {
			base = obs.WithLabel(base, labels[i], labels[i+1])
		}
		return base
	}
	return &Metrics{
		EngineMetrics: sim.EngineMetrics{
			Delivered:  reg.Counter(name("rtnet_messages_delivered_total")),
			TimerFires: reg.Counter(name("rtnet_timer_fires_total")),
			MsgLatency: reg.Hist(name("rtnet_message_latency_ticks"), limit),
			Crashes:    reg.Counter(name("crashes_injected")),
			CrashDrops: reg.Counter(name("rtnet_post_crash_drops_total")),
		},
		Overflows: reg.Counter(name("rtnet_inbox_overflows_total")),
		InboxMax:  reg.Max(name("rtnet_inbox_depth_max")),
		WakeLate:  reg.Hist(name("rtnet_wake_late_us"), 0),
	}
}

// SetMetrics installs the instrumentation hooks. Must be called before
// Start.
func (c *Cluster) SetMetrics(m *Metrics) {
	c.metrics = m
	c.eng.SetMetrics(&m.EngineMetrics)
}

// SetTracer installs the span sink (nil disables tracing). Must be
// called before Start.
func (c *Cluster) SetTracer(t *obs.Collector) { c.eng.SetTracer(t) }

// NewCluster builds a real-time cluster. tick is the wall-clock duration
// of one virtual tick; offsets must respect the skew bound ε.
func NewCluster(p Params, tick time.Duration, offsets []simtime.Duration, nodes []sim.Node, seed int64) (*Cluster, error) {
	if tick <= 0 {
		return nil, fmt.Errorf("rtnet: tick must be positive")
	}
	depth := p.InboxDepth
	if depth == 0 {
		depth = DefaultInboxDepth
	}
	if depth < 0 {
		return nil, fmt.Errorf("rtnet: inbox depth must be positive, got %d", depth)
	}
	net := &lowerHalf{lo: p.MinDelay(), hi: p.MinDelay() + p.U/2}
	eng, err := sim.NewEngine(p.Params, offsets, net, nodes)
	if err != nil {
		return nil, err
	}
	for i := 0; i < p.N; i++ {
		net.rngs = append(net.rngs, rand.New(rand.NewSource(
			harness.DeriveSeed(seed, fmt.Sprintf("rtnet/send/p%d", i)))))
	}
	c := &Cluster{
		depth:        depth,
		tick:         tick,
		offsets:      append([]simtime.Duration(nil), offsets...),
		nodes:        nodes,
		net:          net,
		sleep:        newSleeper(),
		done:         make(chan struct{}),
		eng:          eng,
		overflowProc: -1,
		pending:      map[int64]pendingCall{},
	}
	// A nanosecond timeline: a wait of k ticks ends k·tick after the
	// instant it was registered at, not at a tick boundary up to one tick
	// early. A live run has no end: nothing is retained per operation.
	eng.SetTickUnit(simtime.Duration(tick))
	eng.SetTraceLevel(sim.TraceNone)
	eng.OnRespond = c.respond
	return c, nil
}

// SetClasses installs the operation classification used to tag responses
// (per-class latency accounting in the serving layer). Unclassified
// operations report Mixed, matching core.Replica's conservative default.
// Must be called before Start.
func (c *Cluster) SetClasses(classes map[string]classify.Class) { c.classes = classes }

// UseNetwork overrides the default random per-message delay draw with a
// deterministic sim.Network (e.g. an adversary schedule's
// sim.SequenceNetwork), so the same delay assignments that drive the
// virtual-time simulator can drive the real-time substrate. Delays are
// indexed by global send order, exactly as in sim.Engine. Returned delays
// are clamped to the lower half of [d-u, d] like the default draw. Must
// be called before Start.
func (c *Cluster) UseNetwork(net sim.Network) { c.net.rule = net }

// Start starts the cluster clock and launches the scheduler goroutine.
// Invocations submitted before Start are due at once.
func (c *Cluster) Start() {
	c.mu.Lock()
	c.start = time.Now()
	c.mu.Unlock()
	go c.run()
}

// elapsed returns the nanoseconds since Start (0 before it): the
// engine's timeline.
func (c *Cluster) elapsed() simtime.Time {
	if c.start.IsZero() {
		return 0
	}
	return simtime.Time(time.Since(c.start))
}

// run is the scheduler: dispatch what is due, then sleep until the next
// event's deadline (forever when nothing is scheduled) or until poked.
func (c *Cluster) run() {
	defer close(c.done)
	for {
		c.mu.Lock()
		next := c.dispatchDue()
		c.sleepUntil = next
		stopped := c.stopped
		c.mu.Unlock()
		if stopped {
			return
		}
		c.wait(next)
	}
}

// dispatchDue dispatches every event that is due, each at the instant
// measured just before it, and returns the deadline of the next one
// (simtime.Infinity when nothing is scheduled). The scheduler and every
// invoker run it; mu, which they hold, is what serializes the engine.
func (c *Cluster) dispatchDue() simtime.Time {
	for {
		next, proc := c.eng.Next()
		now := c.elapsed()
		if next > now || c.stopped {
			return next
		}
		c.step(proc, now, next)
	}
}

// step dispatches the engine's next event, due at proc since deadline, at the
// measured instant now — after holding the process's backlog against the bound.
func (c *Cluster) step(proc sim.ProcID, now, deadline simtime.Time) {
	if c.metrics != nil {
		c.metrics.WakeLate.Add(int64(now-deadline) / int64(time.Microsecond))
	}
	if !c.eng.Crashed(proc) {
		backlog := c.eng.Due(proc, now)
		if c.metrics != nil {
			c.metrics.InboxMax.Observe(int64(backlog))
		}
		if backlog > c.depth {
			c.overflow(proc)
			return
		}
	}
	c.eng.Step(now)
}

// respond is the engine's OnRespond: hand the finished operation to its
// caller and forget it.
func (c *Cluster) respond(rec sim.OpRecord) {
	call, ok := c.pending[rec.SeqID]
	if !ok {
		panic(fmt.Sprintf("rtnet: response for unknown op %d", rec.SeqID))
	}
	delete(c.pending, rec.SeqID)
	class := classify.Mixed
	if cl, found := c.classes[rec.Op]; found {
		class = cl
	}
	call.done <- Response{Proc: rec.Proc, Seq: rec.SeqID, Op: rec.Op, Arg: rec.Arg,
		Ret: rec.Ret, Class: class, Invoke: rec.InvokeTime, Respond: rec.RespondTime}
}

// overflow records an inbox overflow as the cluster's failure and stops
// it. Called under mu.
func (c *Cluster) overflow(proc sim.ProcID) error {
	c.overflows++
	c.overflowProc = int32(proc)
	if c.metrics != nil {
		c.metrics.Overflows.Inc()
	}
	if c.err == nil {
		c.err = &InboxOverflowError{Proc: proc, Depth: c.depth}
	}
	c.halt()
	return c.err
}

// halt stops the scheduler and abandons every pending call. Called under
// mu; idempotent.
func (c *Cluster) halt() {
	c.stopped = true
	for seqID, call := range c.pending {
		close(call.done)
		delete(c.pending, seqID)
	}
	c.poke()
}

// Err returns the first failure the cluster recorded (an
// *InboxOverflowError), or nil after a clean run or clean stop.
func (c *Cluster) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Stop terminates the cluster: the scheduler exits and whatever was still
// scheduled is discarded. Calls waiting on a pending invocation return
// ErrStopped. Stopping an already-stopped cluster is a no-op.
func (c *Cluster) Stop() {
	c.mu.Lock()
	started := !c.start.IsZero()
	c.halt()
	c.mu.Unlock()
	if started {
		<-c.done
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Reset cannot fail: NewEngine accepted the same configuration.
	_ = c.eng.Reset(c.eng.Params(), c.offsets, c.net, c.nodes)
}

// Crash kills one process mid-run: its registered timers are canceled,
// its pending invocations fail with ErrCrashed, and from here on it
// handles nothing (deliveries are recorded as dropped, never handed to
// the node). The crash lands on an event boundary: an event being handled
// at the moment of the call completes, and its sends are already in
// flight — exactly a process that stopped between steps. The rest of the
// cluster keeps running; whether live operations still complete is the
// backend's crash-tolerance story, not the substrate's. Crashing a
// crashed process is a no-op.
func (c *Cluster) Crash(proc sim.ProcID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.eng.Crash(proc)
	for seqID, call := range c.pending {
		if call.proc == proc {
			close(call.done)
			delete(c.pending, seqID)
		}
	}
}

// Crashed reports whether a process has been crashed.
func (c *Cluster) Crashed(proc sim.ProcID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng.Crashed(proc)
}

// Pending returns the number of invocations that have not yet responded.
func (c *Cluster) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Drain waits until every pending invocation has responded, then stops
// the cluster. Callers must stop submitting new invocations first — an
// invocation submitted during a drain is still served and merely extends
// the wait. If the cluster fails mid-drain (inbox overflow) the failure
// is returned immediately; if the pending set has not emptied by the
// timeout, the cluster is stopped anyway (abandoning the stragglers) and
// an error is returned.
func (c *Cluster) Drain(timeout time.Duration) error {
	poll := min(max(c.tick, time.Millisecond), 10*time.Millisecond)
	deadline := time.Now().Add(timeout)
	for c.Pending() > 0 {
		if time.Now().After(deadline) {
			n := c.Pending()
			c.Stop()
			return fmt.Errorf("rtnet: drain timed out with %d operations pending", n)
		}
		time.Sleep(poll)
	}
	c.Stop()
	return c.Err()
}

// Invoke submits an operation at a process and returns a channel carrying
// its response; the channel is closed without one if the process crashes
// or the cluster stops first. The caller must respect the
// one-pending-op-per-process rule of the model. A non-nil error means the
// invocation was not submitted: the process has crashed (ErrCrashed), or
// the cluster has stopped (ErrStopped) or failed.
func (c *Cluster) Invoke(proc sim.ProcID, op string, arg any) (<-chan Response, error) {
	return c.InvokeTraced(proc, op, arg, -1)
}

// InvokeTraced is Invoke carrying a causal parent span: the client-side
// span (propagated over the wire protocols) the new operation's root
// span should point back to. Ignored while tracing is off; pass -1 for a
// local root.
func (c *Cluster) InvokeTraced(proc sim.ProcID, op string, arg any, parent int64) (<-chan Response, error) {
	done := make(chan Response, 1)
	if err := c.invoke(proc, op, arg, parent, done); err != nil {
		return nil, err
	}
	return done, nil
}

// invoke submits an operation whose response goes to done, an empty
// channel with room for it. On error done was never registered.
func (c *Cluster) invoke(proc sim.ProcID, op string, arg any, parent int64, done chan Response) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.closedErr(proc); err != nil {
		return err
	}
	now := c.elapsed()
	if c.eng.Due(proc, now) >= c.depth {
		return c.overflow(proc)
	}
	c.pending[c.eng.InvokeAtTraced(proc, now, op, arg, parent)] = pendingCall{proc: proc, done: done}
	// The caller holds mu, so it dispatches the invocation (and whatever
	// else is due) itself, and wakes the scheduler only if a handler
	// scheduled something before the deadline it is sleeping toward.
	if !c.start.IsZero() && c.dispatchDue() < c.sleepUntil {
		c.poke()
	}
	return nil
}

// closedErr says why proc takes no invocations, or nil if it does.
// Called under mu.
func (c *Cluster) closedErr(proc sim.ProcID) error {
	switch {
	case c.eng.Crashed(proc):
		return ErrCrashed
	case c.err != nil:
		return c.err
	case c.stopped:
		return ErrStopped
	}
	return nil
}

// Call invokes and waits for the response. It returns ErrCrashed if the
// process crashes first, and the cluster's recorded failure (or
// ErrStopped) if the cluster stops first.
func (c *Cluster) Call(proc sim.ProcID, op string, arg any) (Response, error) {
	return c.CallTraced(proc, op, arg, -1)
}

// CallTraced is Call carrying a causal parent span (see InvokeTraced).
func (c *Cluster) CallTraced(proc sim.ProcID, op string, arg any, parent int64) (Response, error) {
	done := replies.Get().(chan Response)
	if err := c.invoke(proc, op, arg, parent, done); err != nil {
		replies.Put(done)
		return Response{}, err
	}
	if resp, ok := <-done; ok {
		replies.Put(done)
		return resp, nil
	}
	// Closed by halt or Crash: an abandoned call's channel is never reused.
	c.mu.Lock()
	defer c.mu.Unlock()
	return Response{}, c.closedErr(proc)
}

// replies recycles CallTraced's reply channels. A channel that carried its
// one response is empty and unregistered again; one that halt or Crash
// closed is dropped.
var replies = sync.Pool{New: func() any { return make(chan Response, 1) }}

// Inspect runs f between two events of the process and waits for it,
// establishing the happens-before edge needed to read node state safely
// (e.g. replica fingerprints for convergence checks).
func (c *Cluster) Inspect(_ sim.ProcID, f func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f()
}

// Overflows returns how many inbox overflows the cluster has recorded.
// Any value above zero means the cluster failed (the first overflow is
// sticky).
func (c *Cluster) Overflows() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.overflows
}

// LastOverflowProc returns the process whose inbox overflowed most
// recently, or -1 if no overflow has occurred.
func (c *Cluster) LastOverflowProc() int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.overflowProc
}

// InboxLen returns a process's instantaneous backlog of due events — the
// live per-process gauge the serving layer exports.
func (c *Cluster) InboxLen(proc sim.ProcID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng.Due(proc, c.elapsed())
}
