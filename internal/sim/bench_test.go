package sim

import (
	"testing"

	"lintime/internal/simtime"
)

// pingChain bounces a message around the ring hops times (1000 when
// unset), then responds.
type pingChain struct {
	hops       int
	remaining  int
	pending    int64
	hasPending bool
}

func (n *pingChain) Init(Context) {}
func (n *pingChain) OnInvoke(ctx Context, inv Invocation) {
	n.pending = inv.SeqID
	n.hasPending = true
	if n.remaining = n.hops; n.remaining == 0 {
		n.remaining = 1000
	}
	ctx.Send((ctx.ID()+1)%ProcID(ctx.N()), "ring")
}
func (n *pingChain) OnMessage(ctx Context, from ProcID, payload any) {
	n.remaining--
	if n.remaining <= 0 && n.hasPending {
		ctx.Respond(n.pending, "done")
		n.hasPending = false
		return
	}
	ctx.Send((ctx.ID()+1)%ProcID(ctx.N()), payload)
}
func (n *pingChain) OnTimer(Context, any) {}

// BenchmarkEngineEvents measures raw event throughput: one message
// circulating a ring of 8 processes for 1000 hops.
func BenchmarkEngineEvents(b *testing.B) {
	p := simtime.Params{N: 8, D: 100, U: 40, Epsilon: 30, X: 20}
	for i := 0; i < b.N; i++ {
		nodes := make([]Node, p.N)
		for j := range nodes {
			nodes[j] = &pingChain{}
		}
		eng, err := NewEngine(p, ZeroOffsets(p.N), UniformNetwork{D: p.D}, nodes)
		if err != nil {
			b.Fatal(err)
		}
		eng.InvokeAt(0, 0, "ring", nil)
		tr := eng.Run()
		if err := tr.CheckComplete(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimerChurn measures set/cancel-heavy timer usage, the pattern
// of Algorithm 1's execute timers.
func BenchmarkTimerChurn(b *testing.B) {
	p := simtime.Params{N: 1, D: 100, U: 40, Epsilon: 30, X: 20}
	churner := &probeNode{}
	var count int
	churner.onInvoke = func(ctx Context, inv Invocation) {
		count = 0
		ctx.SetTimer(1, inv.SeqID)
	}
	churner.onTimer = func(ctx Context, tag any) {
		count++
		// Set two timers, cancel one — the replica's drain pattern.
		keep := ctx.SetTimer(1, tag)
		kill := ctx.SetTimer(2, "dead")
		ctx.CancelTimer(kill)
		if count >= 500 {
			ctx.CancelTimer(keep)
			ctx.Respond(tag.(int64), nil)
		}
	}
	for i := 0; i < b.N; i++ {
		eng, err := NewEngine(p, ZeroOffsets(1), UniformNetwork{D: p.D}, []Node{churner})
		if err != nil {
			b.Fatal(err)
		}
		eng.InvokeAt(0, 0, "churn", nil)
		if err := eng.Run().CheckComplete(); err != nil {
			b.Fatal(err)
		}
	}
}
