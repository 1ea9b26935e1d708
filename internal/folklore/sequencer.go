package folklore

import (
	"fmt"
	"sort"

	"lintime/internal/sim"
	"lintime/internal/spec"
)

// Ordered is the sequencer's broadcast: an operation with its global
// sequence number.
type Ordered struct {
	Op    string
	Arg   spec.Value
	Seq   int64
	Orig  sim.ProcID
	SeqID int64
}

// Sequencer is the total-order-broadcast folklore algorithm. Process 0 is
// the sequencer: it stamps every operation with a global sequence number
// and broadcasts it; every replica applies operations in sequence order
// and the invoker responds when it applies its own operation. Remote
// operations take up to 2d (one hop to the sequencer, one broadcast hop);
// the sequencer's own operations apply immediately.
type Sequencer struct {
	dt    spec.DataType
	state spec.State
	seqr  sim.ProcID

	nextSeq    int64      // sequencer only: next sequence number to assign
	nextApply  int64      // next sequence number to apply locally
	outOfOrder []*Ordered // buffered messages with larger sequence numbers
}

// NewSequencer builds one node of the sequencer algorithm; process 0 acts
// as the sequencer.
func NewSequencer(dt spec.DataType) *Sequencer {
	return &Sequencer{dt: dt, state: dt.Initial(), seqr: 0}
}

// NewSequencerNodes builds n sequencer-algorithm nodes.
func NewSequencerNodes(n int, dt spec.DataType) []sim.Node {
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = NewSequencer(dt)
	}
	return nodes
}

// StateFingerprint exposes the replica state for convergence checks.
func (s *Sequencer) StateFingerprint() string { return s.state.Fingerprint() }

// Init implements sim.Node.
func (s *Sequencer) Init(sim.Context) {
	clear(s.outOfOrder)
	s.state, s.nextSeq, s.nextApply, s.outOfOrder = s.dt.Initial(), 0, 0, s.outOfOrder[:0]
}

// OnInvoke implements sim.Node.
func (s *Sequencer) OnInvoke(ctx sim.Context, inv sim.Invocation) {
	if ctx.ID() == s.seqr {
		s.sequence(ctx, Request{Op: inv.Op, Arg: inv.Arg, SeqID: inv.SeqID}, ctx.ID())
		return
	}
	ctx.Send(s.seqr, Request{Op: inv.Op, Arg: inv.Arg, SeqID: inv.SeqID})
}

// sequence (sequencer only) assigns the next number and broadcasts.
func (s *Sequencer) sequence(ctx sim.Context, req Request, orig sim.ProcID) {
	ord := Ordered{Op: req.Op, Arg: req.Arg, Seq: s.nextSeq, Orig: orig, SeqID: req.SeqID}
	s.nextSeq++
	ctx.Broadcast(ord)
	s.apply(ctx, &ord)
}

// OnMessage implements sim.Node.
func (s *Sequencer) OnMessage(ctx sim.Context, from sim.ProcID, payload any) {
	switch m := payload.(type) {
	case Request:
		if ctx.ID() != s.seqr {
			panic("folklore: request sent to non-sequencer")
		}
		s.sequence(ctx, m, from)
	case Ordered:
		s.apply(ctx, &m)
	default:
		panic(fmt.Sprintf("folklore: unexpected message %T", payload))
	}
}

// apply executes deliverable operations in sequence order, buffering any
// received out of order (possible since channels are not FIFO).
func (s *Sequencer) apply(ctx sim.Context, ord *Ordered) {
	s.outOfOrder = append(s.outOfOrder, ord)
	sort.Slice(s.outOfOrder, func(i, j int) bool { return s.outOfOrder[i].Seq < s.outOfOrder[j].Seq })
	for len(s.outOfOrder) > 0 && s.outOfOrder[0].Seq == s.nextApply {
		next := s.outOfOrder[0]
		s.outOfOrder = s.outOfOrder[1:]
		s.nextApply++
		var ret spec.Value
		ret, s.state = s.state.Apply(next.Op, next.Arg)
		if next.Orig == ctx.ID() {
			ctx.Respond(next.SeqID, ret)
		}
	}
}

// OnTimer implements sim.Node.
func (s *Sequencer) OnTimer(sim.Context, any) {}
