package core

import (
	"fmt"

	"lintime/internal/classify"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// MutatorMsg is the broadcast sent for every mutator invocation
// (Algorithm 1 line 15): the operation, its argument, and its timestamp.
// Replicas send it as a *MutatorMsg the sender owns and never rewrites,
// so a trace's message payloads stay valid after the run.
type MutatorMsg struct {
	Op  string
	Arg spec.Value
	TS  Timestamp
}

// Timers collects the timer durations of Algorithm 1. DefaultTimers
// produces the corrected values (see below); PaperTimers produces the
// paper's literal values; tests inject shorter ones to demonstrate that
// each wait is necessary (the failure-injection ablations in DESIGN.md
// §5).
//
// Correction to the paper: Algorithm 1 claims |AOP| = d-X, responding
// d-X after invocation and reading every queued mutator with timestamp at
// most t_inv - X. That view can miss a *concurrent* mutator with a
// smaller timestamp: a mutator invoked at local time τ on a process whose
// clock runs behind by σ arrives only by local time τ + d + σ, so at the
// accessor's drain (local t_inv + d - X) mutators with timestamps in
// (t_inv - X - σ, t_inv - X] may still be in flight while higher-
// timestamped ones are already present. The accessor then returns a value
// inconsistent with every possible linearization (see
// TestPaperAOPWaitAnomaly for a concrete 3-process execution). Waiting
// d - X + ε closes the window exactly: every mutator with timestamp
// ≤ t_inv - X has arrived by local t_inv + d - X + ε, making the view a
// stable prefix of the global timestamp order, while mutators that
// responded before the accessor's invocation still satisfy
// ts ≤ t_inv - X (they respond X + ε after invocation, and the skew bound
// gives the inequality with no slack). Hence our accessor bound is
// |AOP| = d - X + ε; the paper's d - X appears unachievable for ε > 0
// with this style of algorithm.
type Timers struct {
	// AOPRespond is the pure-accessor response delay: d-X+ε (corrected),
	// or d-X in the paper's literal version.
	AOPRespond simtime.Duration
	// AOPBackdate is subtracted from a pure accessor's invocation time to
	// form its timestamp, X.
	AOPBackdate simtime.Duration
	// MOPRespond is the pure-mutator response delay, X+ε.
	MOPRespond simtime.Duration
	// AddSelf is the invoking process's simulated message delay before
	// adding its own mutator to the execute queue, d-u.
	AddSelf simtime.Duration
	// ExecuteWait is the stabilization wait between adding a mutator to
	// the queue and executing it, u+ε.
	ExecuteWait simtime.Duration
}

// DefaultTimers returns the corrected timer durations: the paper's values
// with the pure-accessor wait extended by ε (see the Timers doc comment).
func DefaultTimers(p simtime.Params) Timers {
	t := PaperTimers(p)
	t.AOPRespond += p.Epsilon
	return t
}

// PaperTimers returns Algorithm 1's literal timer durations, including the
// unsound d-X pure-accessor wait. Correct when ε = 0; for ε > 0 see
// TestPaperAOPWaitAnomaly.
func PaperTimers(p simtime.Params) Timers {
	return Timers{
		AOPRespond:  p.D - p.X,
		AOPBackdate: p.X,
		MOPRespond:  p.X + p.Epsilon,
		AddSelf:     p.D - p.U,
		ExecuteWait: p.U + p.Epsilon,
	}
}

// respondRec is the operation a pure accessor's or pure mutator's respond
// timer answers. A process has at most one operation pending (the engine
// panics on a second), so each replica keeps one and the respond tags
// point at it.
type respondRec struct {
	seqID int64
	op    string
	arg   spec.Value
	ts    Timestamp  // accessors: the back-dated timestamp
	ret   spec.Value // mutators: the state-independent response
}

// Timer tags used by the replica. Each is a single pointer, so handing
// one to SetTimer as an any allocates nothing.
type aopRespondTag struct {
	rec *respondRec
}

type mopRespondTag struct {
	rec *respondRec
}

type addSelfTag struct {
	entry *pendingOp
}

type executeTag struct {
	entry *pendingOp
}

// Replica is one process's Algorithm 1 state machine. It implements
// sim.Node. All replicas of an object must be constructed with the same
// data type, classification and timers.
type Replica struct {
	dt      spec.DataType
	classes map[string]classify.Class
	timers  Timers

	state   spec.State
	queue   toExecuteQueue
	history []spec.Instance // local execution history (§5.1 history variable)

	// free holds drained queue entries for reuse and scratch is
	// speculativeRead's fold list, so a replica in steady state — serving
	// a live stream, or reused across runs — allocates neither again.
	free    []*pendingOp
	scratch []*pendingOp

	// respond is the pending pure operation's record, and msgs the unused
	// tail of the chunk broadcasts are carved from. A chunk is never
	// reused — Init keeps the tail — so a payload that escaped into a
	// trace is never rewritten.
	respond respondRec
	msgs    []MutatorMsg

	// KeepHistory records every locally executed instance in order; the
	// harness uses it to validate replica convergence. Off by default to
	// keep long runs cheap (the paper notes the history variable can be
	// pruned per data type; our state machine replica subsumes it).
	KeepHistory bool

	// LiteralAOPDrain reproduces Algorithm 1's pseudocode literally: a
	// pure accessor's respond handler permanently executes (extracts and
	// commits) every queued mutator with timestamp at most the accessor's
	// (lines 4-8). This is subtly unsound: a mutator with a *smaller*
	// timestamp from a process whose clock runs behind can arrive up to ε
	// after the accessor's d-X drain, so the drain commits mutators out of
	// timestamp order at this replica and replica states diverge. The
	// default (false) instead computes the accessor's response from a
	// speculative view — pending mutators with ts ≤ the accessor's are
	// folded over a copy of the state but stay queued for their own
	// execute timers — which returns the same value (pending entries are
	// applied in the same timestamp order) while keeping the committed
	// mutator order canonical. TestLiteralAOPDrainDiverges exhibits the
	// divergence.
	LiteralAOPDrain bool
}

// NewReplica builds one Algorithm 1 replica. Every process of the system
// must get its own Replica instance constructed with identical arguments.
func NewReplica(dt spec.DataType, classes map[string]classify.Class, timers Timers) *Replica {
	r := &Replica{dt: dt, classes: classes, timers: timers}
	r.Init(nil)
	return r
}

// NewReplicas builds n identically configured replicas as sim.Nodes.
func NewReplicas(n int, dt spec.DataType, classes map[string]classify.Class, timers Timers) []sim.Node {
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = NewReplica(dt, classes, timers)
	}
	return nodes
}

// History returns the sequence of instances executed locally (only
// recorded when KeepHistory is set).
func (r *Replica) History() []spec.Instance { return r.history }

// StateFingerprint exposes the local object state for convergence checks.
func (r *Replica) StateFingerprint() string { return r.state.Fingerprint() }

// classOf returns the class of op, defaulting to Mixed (the conservative
// choice: correct for any operation, merely slower).
func (r *Replica) classOf(op string) classify.Class {
	if c, ok := r.classes[op]; ok {
		return c
	}
	return classify.Mixed
}

// Init implements sim.Node: the committed state returns to the initial
// one and every queued entry to the free list.
func (r *Replica) Init(sim.Context) {
	r.state, r.history = r.dt.Initial(), nil
	for _, e := range r.queue.items {
		r.release(e)
	}
	clear(r.queue.items)
	r.queue.items = r.queue.items[:0]
}

// entry returns a queue entry for the mutator, reusing a drained one when
// the free list has any.
func (r *Replica) entry(op string, arg spec.Value, ts Timestamp) *pendingOp {
	var e *pendingOp
	if n := len(r.free); n > 0 {
		e, r.free = r.free[n-1], r.free[:n-1]
	} else {
		e = new(pendingOp)
	}
	*e = pendingOp{op: op, arg: arg, ts: ts, respondSeq: -1}
	return e
}

// msgChunk is how many broadcasts one allocation serves.
const msgChunk = 64

// mutatorMsg returns a fresh broadcast for the mutator, carved from the
// current chunk.
func (r *Replica) mutatorMsg(op string, arg spec.Value, ts Timestamp) *MutatorMsg {
	if len(r.msgs) == cap(r.msgs) {
		r.msgs = make([]MutatorMsg, 0, msgChunk)
	}
	r.msgs = append(r.msgs, MutatorMsg{Op: op, Arg: arg, TS: ts})
	return &r.msgs[len(r.msgs)-1]
}

// release returns an entry to the free list. No tag still in flight can
// reach it: its execute timer has fired or been canceled, or — at Init —
// the run that armed it is over.
func (r *Replica) release(e *pendingOp) {
	*e = pendingOp{}
	r.free = append(r.free, e)
}

// OnInvoke implements sim.Node: Algorithm 1's InvokeAOP and InvokeOP
// handlers.
func (r *Replica) OnInvoke(ctx sim.Context, inv sim.Invocation) {
	switch r.classOf(inv.Op) {
	case classify.PureAccessor:
		// InvokeAOP (lines 1-2): respond after d-X with timestamp
		// back-dated by X.
		ts := Timestamp{Time: ctx.LocalTime().Add(-r.timers.AOPBackdate), Proc: ctx.ID()}
		r.respond = respondRec{seqID: inv.SeqID, op: inv.Op, arg: inv.Arg, ts: ts}
		ctx.SetTimer(r.timers.AOPRespond, aopRespondTag{rec: &r.respond})
	case classify.PureMutator, classify.Mixed:
		// InvokeOP (lines 10-15).
		ts := Timestamp{Time: ctx.LocalTime(), Proc: ctx.ID()}
		entry := r.entry(inv.Op, inv.Arg, ts)
		if r.classOf(inv.Op) == classify.PureMutator {
			// Pure mutators respond after X+ε, independent of execution.
			// Their response cannot depend on the state (they are not
			// accessors), so it is computable from the initial state.
			ack := spec.Response(r.dt.Initial(), inv.Op, inv.Arg)
			r.respond = respondRec{seqID: inv.SeqID, ret: ack}
			ctx.SetTimer(r.timers.MOPRespond, mopRespondTag{rec: &r.respond})
		} else {
			entry.respondSeq = inv.SeqID // OOP responds on execution
		}
		// Simulate the minimum message delay to ourselves before queueing
		// (line 14), then notify everyone else (line 15).
		ctx.SetTimer(r.timers.AddSelf, addSelfTag{entry: entry})
		ctx.Broadcast(r.mutatorMsg(inv.Op, inv.Arg, ts))
	}
}

// OnMessage implements sim.Node: receipt of a mutator announcement adds it
// to the execute queue (line 18 "or Receive").
func (r *Replica) OnMessage(ctx sim.Context, from sim.ProcID, payload any) {
	msg, ok := payload.(*MutatorMsg)
	if !ok {
		panic(fmt.Sprintf("core: unexpected message %T", payload))
	}
	r.addToQueue(ctx, r.entry(msg.Op, msg.Arg, msg.TS))
}

// OnTimer implements sim.Node, dispatching on the timer tag.
func (r *Replica) OnTimer(ctx sim.Context, tag any) {
	switch v := tag.(type) {
	case aopRespondTag:
		// Lines 3-9: apply every queued mutator with timestamp ≤ the
		// accessor's, then execute the accessor and respond.
		rec := v.rec
		var ret spec.Value
		if r.LiteralAOPDrain {
			r.drainUpTo(ctx, rec.ts)
			ret = r.executeLocally(rec.op, rec.arg)
		} else {
			ret = r.speculativeRead(rec.ts, rec.op, rec.arg)
		}
		ctx.Respond(rec.seqID, ret)
	case mopRespondTag:
		// Lines 16-17: pure mutators respond independently of execution.
		ctx.Respond(v.rec.seqID, v.rec.ret)
	case addSelfTag:
		// Lines 18-20, self-delay path.
		r.addToQueue(ctx, v.entry)
	case executeTag:
		// Lines 21-29: execute every entry with timestamp ≤ this one's.
		r.drainUpTo(ctx, v.entry.ts)
	default:
		panic(fmt.Sprintf("core: unexpected timer tag %T", tag))
	}
}

// addToQueue inserts a mutator into To_Execute and arms its u+ε execute
// timer (lines 18-20).
func (r *Replica) addToQueue(ctx sim.Context, entry *pendingOp) {
	entry.execTimer = ctx.SetTimer(r.timers.ExecuteWait, executeTag{entry: entry})
	r.queue.Add(entry)
}

// drainUpTo executes every queued mutator with timestamp ≤ ts in
// timestamp order, canceling their execute timers, and responds for own
// mixed operations.
func (r *Replica) drainUpTo(ctx sim.Context, ts Timestamp) {
	for {
		min := r.queue.Min()
		if min == nil || !min.ts.LessEq(ts) {
			return
		}
		entry := r.queue.ExtractMin()
		ctx.CancelTimer(entry.execTimer)
		ret := r.executeLocally(entry.op, entry.arg)
		respondSeq := entry.respondSeq
		r.release(entry)
		if respondSeq >= 0 {
			ctx.Respond(respondSeq, ret)
		}
	}
}

// speculativeRead computes a pure accessor's response from the committed
// state extended (in timestamp order, without committing) with every
// queued mutator whose timestamp is at most ts. Because states are
// immutable this costs one fold over the pending entries and leaves the
// replica untouched.
func (r *Replica) speculativeRead(ts Timestamp, op string, arg spec.Value) spec.Value {
	pending := r.scratch[:0]
	for _, e := range r.queue.items {
		if e.ts.LessEq(ts) {
			pending = append(pending, e)
		}
	}
	// Sort by timestamp (the heap slice is not fully sorted).
	for i := 1; i < len(pending); i++ {
		for j := i; j > 0 && pending[j].ts.Less(pending[j-1].ts); j-- {
			pending[j], pending[j-1] = pending[j-1], pending[j]
		}
	}
	view := r.state
	for _, e := range pending {
		_, view = view.Apply(e.op, e.arg)
	}
	r.scratch = pending[:0]
	ret, _ := view.Apply(op, arg)
	return ret
}

// executeLocally applies the operation to the local replica state and
// returns the legal response (Algorithm 1 lines 30-33).
func (r *Replica) executeLocally(op string, arg spec.Value) spec.Value {
	ret, next := r.state.Apply(op, arg)
	r.state = next
	if r.KeepHistory {
		r.history = append(r.history, spec.Instance{Op: op, Arg: arg, Ret: ret})
	}
	return ret
}
