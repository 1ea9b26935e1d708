// Package folklore implements the two "folklore" linearizable object
// algorithms sketched in the paper's introduction, used as baselines:
//
//   - Central: every invocation is forwarded to a distinguished process
//     that applies operations in arrival order and replies — up to 2d per
//     operation.
//   - Sequencer: a total-order-broadcast scheme built on a sequencer
//     process; every replica applies operations in sequence order and the
//     invoker responds when it applies its own — also up to 2d per
//     operation.
//
// Both treat every operation identically (no classification), which is
// exactly what Algorithm 1 improves upon.
package folklore

import (
	"fmt"

	"lintime/internal/sim"
	"lintime/internal/spec"
)

// Request asks the distinguished process to execute an operation.
type Request struct {
	Op    string
	Arg   spec.Value
	SeqID int64
}

// Reply carries the result back to the invoker.
type Reply struct {
	SeqID int64
	Ret   spec.Value
}

// Central is the centralized folklore algorithm. Process 0 is the
// distinguished server holding the only authoritative copy; it applies
// operations in the order requests arrive (its receipt steps are the
// linearization points). Server-local invocations apply immediately.
type Central struct {
	dt     spec.DataType
	state  spec.State // authoritative copy (server only)
	server sim.ProcID
}

// NewCentral builds one node of the centralized algorithm; process 0 acts
// as the server.
func NewCentral(dt spec.DataType) *Central {
	return &Central{dt: dt, state: dt.Initial(), server: 0}
}

// NewCentralNodes builds n centralized nodes.
func NewCentralNodes(n int, dt spec.DataType) []sim.Node {
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = NewCentral(dt)
	}
	return nodes
}

// StateFingerprint exposes the server state (meaningful at process 0).
func (c *Central) StateFingerprint() string { return c.state.Fingerprint() }

// Init implements sim.Node.
func (c *Central) Init(sim.Context) { c.state = c.dt.Initial() }

// OnInvoke implements sim.Node.
func (c *Central) OnInvoke(ctx sim.Context, inv sim.Invocation) {
	if ctx.ID() == c.server {
		var ret spec.Value
		ret, c.state = c.state.Apply(inv.Op, inv.Arg)
		ctx.Respond(inv.SeqID, ret)
		return
	}
	ctx.Send(c.server, Request{Op: inv.Op, Arg: inv.Arg, SeqID: inv.SeqID})
}

// OnMessage implements sim.Node.
func (c *Central) OnMessage(ctx sim.Context, from sim.ProcID, payload any) {
	switch m := payload.(type) {
	case Request:
		var ret spec.Value
		ret, c.state = c.state.Apply(m.Op, m.Arg)
		ctx.Send(from, Reply{SeqID: m.SeqID, Ret: ret})
	case Reply:
		ctx.Respond(m.SeqID, m.Ret)
	default:
		panic(fmt.Sprintf("folklore: unexpected message %T", payload))
	}
}

// OnTimer implements sim.Node.
func (c *Central) OnTimer(sim.Context, any) {}
