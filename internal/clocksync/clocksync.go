// Package clocksync implements the clock synchronization substrate the
// paper assumes: §5 proceeds "under the assumption that some such
// algorithm has already synchronized the clocks in our system" to the
// optimal error ε = (1-1/n)·u of Lundelius & Lynch [16]. This package
// makes that assumption constructive.
//
// The algorithm is the classic averaging scheme. Every process broadcasts
// a reading of its local clock; a receiver that gets reading τ after a
// delay known only to lie in [d-u, d] estimates the sender's current
// clock as τ + d - u/2, an estimate with error at most u/2 in either
// direction. Each process then adjusts its clock to the average of the
// estimates of all n clocks (its own included, with error 0). Lundelius
// and Lynch proved the resulting skew is at most (1-1/n)·u and that no
// algorithm does better — which is exactly the ε the paper's Algorithm 1
// plugs into its timers.
//
// The implementation runs as a sim.Node phase: call Run to execute a
// synchronization round on an engine and obtain the corrected offsets,
// then build the object replicas with those offsets.
package clocksync

import (
	"fmt"

	"lintime/internal/sim"
	"lintime/internal/simtime"
)

// reading is a broadcast clock sample.
type reading struct {
	Local simtime.Time // sender's local clock at send time
}

// Node is one process of the synchronization algorithm. After the round
// completes, Adjustment holds the correction to add to the local clock.
type Node struct {
	params simtime.Params

	sent      bool
	estimates []estimate // per-sender estimate of (their clock - my clock)
	received  int
	done      bool

	// Adjustment is the computed clock correction (valid once Done).
	Adjustment simtime.Duration
}

type estimate struct {
	have bool
	diff simtime.Duration // estimated (sender clock - local clock)
}

// NewNode builds one synchronization process.
func NewNode(p simtime.Params) *Node {
	return &Node{params: p, estimates: make([]estimate, p.N)}
}

// NewNodes builds n synchronization processes.
func NewNodes(p simtime.Params) []sim.Node {
	nodes := make([]sim.Node, p.N)
	for i := range nodes {
		nodes[i] = NewNode(p)
	}
	return nodes
}

// Done reports whether the node has computed its adjustment.
func (n *Node) Done() bool { return n.done }

// Init implements sim.Node.
func (n *Node) Init(ctx sim.Context) {
	clear(n.estimates)
	*n = Node{params: n.params, estimates: n.estimates}
}

// OnInvoke implements sim.Node: the "sync" invocation starts the round at
// this process and responds once all estimates are in.
func (n *Node) OnInvoke(ctx sim.Context, inv sim.Invocation) {
	if inv.Op != "sync" {
		panic(fmt.Sprintf("clocksync: unexpected operation %q", inv.Op))
	}
	n.start(ctx)
	// Respond when the round completes; poll via a timer tagged with the
	// invocation (the round is bounded by d, so d+1 always suffices).
	ctx.SetTimer(n.params.D+1, inv.SeqID)
}

// start broadcasts this process's clock reading once.
func (n *Node) start(ctx sim.Context) {
	if n.sent {
		return
	}
	n.sent = true
	// Estimate of our own clock: exact.
	n.estimates[ctx.ID()] = estimate{have: true, diff: 0}
	n.received++
	ctx.Broadcast(reading{Local: ctx.LocalTime()})
	n.maybeFinish(ctx)
}

// OnMessage implements sim.Node: fold in the sender's estimated offset.
func (n *Node) OnMessage(ctx sim.Context, from sim.ProcID, payload any) {
	msg, ok := payload.(reading)
	if !ok {
		panic(fmt.Sprintf("clocksync: unexpected message %T", payload))
	}
	// The message is between d-u and d old; the midpoint estimator puts
	// the sender's current clock at msg.Local + d - u/2, off by ≤ u/2.
	if !n.estimates[from].have {
		senderNow := msg.Local.Add(n.params.D - n.params.U/2)
		n.estimates[from] = estimate{have: true, diff: senderNow.Sub(ctx.LocalTime())}
		n.received++
	}
	// Hearing from a peer also triggers our own broadcast (so a single
	// invocation anywhere synchronizes everyone).
	n.start(ctx)
	n.maybeFinish(ctx)
}

// OnTimer implements sim.Node: respond to the original invocation.
func (n *Node) OnTimer(ctx sim.Context, tag any) {
	ctx.Respond(tag.(int64), int64(n.Adjustment))
}

// maybeFinish computes the adjustment once all estimates arrived: the
// average estimated difference to every clock (including our own zero).
func (n *Node) maybeFinish(sim.Context) {
	if n.done || n.received < n.params.N {
		return
	}
	var sum simtime.Duration
	for _, e := range n.estimates {
		sum += e.diff
	}
	n.Adjustment = sum / simtime.Duration(n.params.N)
	n.done = true
}

// Run executes one synchronization round on a fresh engine with the given
// true offsets and network, and returns the corrected offsets
// (offset + adjustment per process). The corrected offsets are what the
// paper's Algorithm 1 should be deployed with: their pairwise skew is at
// most (1-1/n)·u regardless of the initial skew.
func Run(p simtime.Params, offsets []simtime.Duration, net sim.Network) ([]simtime.Duration, error) {
	// The sync round itself tolerates arbitrary initial skew; engine
	// validation is against p.Epsilon, so run it with a permissive bound.
	loose := p
	loose.Epsilon = maxSkew(offsets)
	if loose.Epsilon < p.Epsilon {
		loose.Epsilon = p.Epsilon
	}
	loose.X = 0
	nodes := NewNodes(loose)
	eng, err := sim.NewEngine(loose, offsets, net, nodes)
	if err != nil {
		return nil, err
	}
	eng.InvokeAt(0, 0, "sync", nil)
	tr := eng.Run()
	if err := tr.CheckComplete(); err != nil {
		return nil, err
	}
	out := make([]simtime.Duration, p.N)
	for i, node := range nodes {
		sn := node.(*Node)
		if !sn.Done() {
			return nil, fmt.Errorf("clocksync: p%d did not finish the round", i)
		}
		out[i] = offsets[i] + sn.Adjustment
	}
	return out, nil
}

// maxSkew returns the maximum pairwise offset difference.
func maxSkew(offsets []simtime.Duration) simtime.Duration {
	var max simtime.Duration
	for i := range offsets {
		for j := range offsets {
			if s := (offsets[i] - offsets[j]).Abs(); s > max {
				max = s
			}
		}
	}
	return max
}

// Bound returns the optimal achievable skew (1-1/n)·u for the parameters.
func Bound(p simtime.Params) simtime.Duration {
	return simtime.OptimalEpsilon(p.N, p.U)
}
