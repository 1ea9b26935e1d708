// Package quorum implements an ABD-style crash-tolerant majority-quorum
// read/write register (Attiya–Bar-Noy–Dolev; the time-efficient variant
// follows Mostéfaoui & Raynal, "Time-Efficient Read/Write Register in
// Crash-prone Asynchronous Message-Passing Systems").
//
// The register is the third backend beside Algorithm 1 (internal/core)
// and the folklore baselines (internal/folklore). Unlike both, it reads
// no clocks and tolerates crash-stop failures of any minority of
// processes: every operation runs one or two majority-quorum phases, so
// it terminates as long as ⌊n/2⌋+1 processes are live, at a latency of
// two round trips (~4d) instead of the paper's clock-assisted d-X+ε /
// X+ε bounds. DESIGN.md §13 records where the paper's bounds stop
// applying in this model.
//
// A write queries a majority for the largest tag, then propagates
// (maxTS+1, self) with the new value to a majority. A read queries a
// majority, then writes the largest (tag, value) back to a majority
// before returning — the write-back is what makes reads linearizable
// (skipping it admits new-old read inversions; see the "skip-writeback"
// mutant). Replicas store the largest tag seen, adopt strictly greater
// tags, and acknowledge every request — including stale updates — so
// phase message counts are deterministic across delay schedules.
//
// Determinism notes, load-bearing for the exhaustive sweeps in
// internal/bmc: requests are always broadcast to all peers even when the
// initiator alone already satisfies a (mutant-weakened) quorum, the
// write-back phase always runs even when the read's majority already
// agrees (the usual skip-if-agreed optimization is deliberately
// omitted), and each phase retransmits only if a quorum is still missing
// after the retransmit period (3d by default — beyond the 2d worst-case
// round trip, so loss-free runs never retransmit).
package quorum

import (
	"fmt"

	"lintime/internal/obs"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

var (
	phaseTotal      = obs.Default.Counter("quorum_phase_total")
	retransmitTotal = obs.Default.Counter("quorum_retransmits_total")
)

// Operation names (the quorum backend serves the register data type).
const (
	OpRead  = "read"
	OpWrite = "write"
)

// Tag is an ABD timestamp: a logical clock value with the writer's
// process id as tie-break, ordered lexicographically.
type Tag struct {
	TS   int64
	Proc int
}

// Less is the total tag order: (TS, Proc) lexicographic.
func (t Tag) Less(o Tag) bool {
	if t.TS != o.TS {
		return t.TS < o.TS
	}
	return t.Proc < o.Proc
}

// Wire messages. Seq is the initiator's phase sequence number, echoed in
// acknowledgements so stale and duplicate acks are discarded.
type (
	// QueryReq asks a replica for its current (tag, value).
	QueryReq struct{ Seq int64 }
	// QueryAck answers a QueryReq.
	QueryAck struct {
		Seq int64
		Tag Tag
		Val spec.Value
	}
	// UpdateReq asks a replica to adopt (tag, value) if it exceeds its
	// current tag.
	UpdateReq struct {
		Seq int64
		Tag Tag
		Val spec.Value
	}
	// UpdateAck acknowledges an UpdateReq (sent even when the update was
	// stale — acknowledgement means durability, not adoption).
	UpdateAck struct{ Seq int64 }
)

// Config carries the replica's protocol knobs. The zero value plus a
// positive Retransmit is the correct protocol; the mutant registry
// weakens one knob at a time.
type Config struct {
	// ReadQuorum overrides the quorum of a read's query phase
	// (0 = majority). Sub-majority values break read-write quorum
	// intersection as soon as n ≥ 3.
	ReadQuorum int
	// WriteQuorum overrides the quorum of every other phase: a write's
	// query and update phases and a read's write-back (0 = majority).
	WriteQuorum int
	// SkipWriteBack makes reads respond straight after the query phase,
	// admitting new-old read inversions between non-overlapping reads.
	SkipWriteBack bool
	// TSOnlyTieBreak compares tags by TS alone, keeping the incumbent on
	// ties — concurrent writes that draw equal timestamps then diverge
	// across replicas.
	TSOnlyTieBreak bool
	// Retransmit is the per-phase retransmission period. Must be
	// positive; DefaultRetransmit gives 3d.
	Retransmit simtime.Duration
}

// DefaultRetransmit returns the default retransmission period, 3d: past
// the 2d worst-case request/ack round trip, so runs without message loss
// or over-threshold crashes never retransmit.
func DefaultRetransmit(p simtime.Params) simtime.Duration { return 3 * p.D }

// DefaultConfig returns the correct protocol configuration for the given
// model parameters.
func DefaultConfig(p simtime.Params) Config {
	return Config{Retransmit: DefaultRetransmit(p)}
}

// less applies the configured tag order: strict (TS, Proc) by default,
// TS-only under the stale-tie-break mutation.
func (c Config) less(a, b Tag) bool {
	if c.TSOnlyTieBreak {
		return a.TS < b.TS
	}
	return a.Less(b)
}

// retransmitTag re-arms a phase's request broadcast.
type retransmitTag struct{ seq int64 }

// traceSource is the optional Context extension the engine's Context
// implements: it exposes the span sink so the replica can record its
// quorum phases as child spans of the operation. Asserting here —
// instead of widening sim.Context — keeps the Node/Context contract
// minimal and other backends tracer-oblivious.
type traceSource interface{ Tracer() *obs.Collector }

// tracerFor returns the span sink reachable through ctx, or nil when
// tracing is off.
func tracerFor(ctx sim.Context) *obs.Collector {
	if ts, ok := ctx.(traceSource); ok {
		return ts.Tracer()
	}
	return nil
}

// phaseSpan derives the deterministic child-span id of one phase of one
// operation: bitwise NOT of (seqID·2 + phase−1). Operation SeqIDs are
// non-negative on both clocks, so phase spans are unique negative
// values that can never collide with a root span.
func phaseSpan(seqID int64, phase int) int64 {
	return ^(seqID*2 + int64(phase-1))
}

// phaseName names a phase in trace output: both operations query first
// (phase 1); phase 2 is a write's propagate or a read's write-back.
func phaseName(phase int) string {
	if phase == 1 {
		return "query"
	}
	return "write_back"
}

// opState tracks the replica's own operation in flight.
type opState struct {
	seqID int64 // invocation to respond to
	op    string
	arg   spec.Value
	phase int   // 1 = query, 2 = update/write-back
	seq   int64 // phase sequence number stamped in requests
	acked uint64
	// query-phase fold
	maxTag Tag
	maxVal spec.Value
	// update-phase payload
	upTag Tag
	upVal spec.Value
	timer sim.TimerID
}

// Replica is one process's ABD register state machine. It implements
// sim.Node and runs unchanged on the virtual-time engine and the
// real-time rtnet transport.
type Replica struct {
	cfg     Config
	initial spec.Value

	tag Tag
	val spec.Value
	cur *opState
	seq int64
}

// NewReplica builds one quorum-register replica with the given initial
// register value. Every process must get its own instance with identical
// arguments.
func NewReplica(initial int, cfg Config) *Replica {
	if cfg.Retransmit <= 0 {
		panic("quorum: Config.Retransmit must be positive")
	}
	r := &Replica{cfg: cfg, initial: initial}
	r.Init(nil)
	return r
}

// NewReplicas builds n identically configured replicas as sim.Nodes.
func NewReplicas(n int, initial int, cfg Config) []sim.Node {
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = NewReplica(initial, cfg)
	}
	return nodes
}

// Init implements sim.Node.
func (r *Replica) Init(sim.Context) {
	r.tag, r.val, r.cur, r.seq = Tag{TS: 0, Proc: -1}, r.initial, nil, 0
}

// quorumFor returns the distinct-replica count a phase must hear from
// (including the initiator itself).
func (r *Replica) quorumFor(ctx sim.Context, op string, phase int) int {
	if op == OpRead && phase == 1 {
		if r.cfg.ReadQuorum > 0 {
			return r.cfg.ReadQuorum
		}
	} else if r.cfg.WriteQuorum > 0 {
		return r.cfg.WriteQuorum
	}
	return ctx.N()/2 + 1
}

// OnInvoke implements sim.Node: both operations start with a query
// phase.
func (r *Replica) OnInvoke(ctx sim.Context, inv sim.Invocation) {
	if r.cur != nil {
		panic(fmt.Sprintf("quorum: p%d invoked %s while an operation is in flight", ctx.ID(), inv.Op))
	}
	switch inv.Op {
	case OpRead, OpWrite:
	default:
		panic(fmt.Sprintf("quorum: unsupported operation %q (the quorum backend serves the register type)", inv.Op))
	}
	r.cur = &opState{seqID: inv.SeqID, op: inv.Op, arg: inv.Arg}
	r.startPhase(ctx, 1)
}

// startPhase arms phase p of the current operation: broadcast its
// requests to every peer (always — even a self-satisfied mutant quorum
// broadcasts, keeping message counts schedule-independent), set the
// retransmission timer, count the initiator's own contribution, and
// complete immediately if that already suffices.
func (r *Replica) startPhase(ctx sim.Context, phase int) {
	cur := r.cur
	r.seq++
	cur.phase = phase
	cur.seq = r.seq
	cur.acked = 1 << uint(ctx.ID())
	phaseTotal.Inc()
	if ct := tracerFor(ctx); ct != nil {
		ct.Child(int32(ctx.ID()), phaseSpan(cur.seqID, phase), cur.seqID,
			phaseName(phase), int64(ctx.Now()))
	}
	if phase == 1 {
		cur.maxTag, cur.maxVal = r.tag, r.val
	} else {
		// The initiator is a replica too: adopt its own update locally.
		r.adopt(cur.upTag, cur.upVal)
	}
	ctx.Broadcast(r.request(cur))
	cur.timer = ctx.SetTimer(r.cfg.Retransmit, retransmitTag{seq: cur.seq})
	r.maybeComplete(ctx)
}

// request builds the current phase's request message.
func (r *Replica) request(cur *opState) any {
	if cur.phase == 1 {
		return QueryReq{Seq: cur.seq}
	}
	return UpdateReq{Seq: cur.seq, Tag: cur.upTag, Val: cur.upVal}
}

// adopt installs (tag, val) if it exceeds the stored tag under the
// configured order.
func (r *Replica) adopt(tag Tag, val spec.Value) {
	if r.cfg.less(r.tag, tag) {
		r.tag, r.val = tag, val
	}
}

// OnMessage implements sim.Node.
func (r *Replica) OnMessage(ctx sim.Context, from sim.ProcID, payload any) {
	switch m := payload.(type) {
	case QueryReq:
		ctx.Send(from, QueryAck{Seq: m.Seq, Tag: r.tag, Val: r.val})
	case UpdateReq:
		r.adopt(m.Tag, m.Val)
		ctx.Send(from, UpdateAck{Seq: m.Seq})
	case QueryAck:
		cur := r.cur
		if cur == nil || cur.phase != 1 || m.Seq != cur.seq {
			return // stale or duplicate
		}
		if cur.acked&(1<<uint(from)) != 0 {
			return // duplicate (retransmitted request)
		}
		cur.acked |= 1 << uint(from)
		if r.cfg.less(cur.maxTag, m.Tag) {
			cur.maxTag, cur.maxVal = m.Tag, m.Val
		}
		r.maybeComplete(ctx)
	case UpdateAck:
		cur := r.cur
		if cur == nil || cur.phase != 2 || m.Seq != cur.seq {
			return
		}
		if cur.acked&(1<<uint(from)) != 0 {
			return
		}
		cur.acked |= 1 << uint(from)
		r.maybeComplete(ctx)
	default:
		panic(fmt.Sprintf("quorum: unexpected message %T", payload))
	}
}

// OnTimer implements sim.Node: the only timers are per-phase
// retransmissions.
func (r *Replica) OnTimer(ctx sim.Context, tag any) {
	rt, ok := tag.(retransmitTag)
	if !ok {
		panic(fmt.Sprintf("quorum: unexpected timer tag %T", tag))
	}
	cur := r.cur
	if cur == nil || cur.seq != rt.seq {
		return // phase already completed
	}
	retransmitTotal.Inc()
	ctx.Broadcast(r.request(cur))
	cur.timer = ctx.SetTimer(r.cfg.Retransmit, retransmitTag{seq: cur.seq})
}

// maybeComplete advances the current operation once its phase quorum is
// reached.
func (r *Replica) maybeComplete(ctx sim.Context) {
	cur := r.cur
	if popcount(cur.acked) < r.quorumFor(ctx, cur.op, cur.phase) {
		return
	}
	ctx.CancelTimer(cur.timer)
	if ct := tracerFor(ctx); ct != nil {
		ct.ChildEnd(int32(ctx.ID()), phaseSpan(cur.seqID, cur.phase), int64(ctx.Now()))
	}
	if cur.phase == 1 {
		if cur.op == OpWrite {
			// Propagate (maxTS+1, self) with the written value.
			cur.upTag = Tag{TS: cur.maxTag.TS + 1, Proc: int(ctx.ID())}
			cur.upVal = cur.arg
			r.startPhase(ctx, 2)
			return
		}
		// Read: write the largest (tag, value) back before responding.
		if r.cfg.SkipWriteBack {
			r.cur = nil
			ctx.Respond(cur.seqID, cur.maxVal)
			return
		}
		cur.upTag, cur.upVal = cur.maxTag, cur.maxVal
		r.startPhase(ctx, 2)
		return
	}
	// Phase 2 complete: the operation's (tag, value) is durable at a
	// quorum.
	r.cur = nil
	if cur.op == OpWrite {
		ctx.Respond(cur.seqID, nil)
	} else {
		ctx.Respond(cur.seqID, cur.maxVal)
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
