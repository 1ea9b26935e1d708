package rtnet

import (
	"testing"
	"time"

	"lintime/internal/sim"
	"lintime/internal/simtime"
)

// timerCount returns the number of registered timers that have neither
// fired nor been canceled; the count must drain as timers fire.
func (c *Cluster) timerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng.Timers()
}

// timerNode responds to every invocation from a timer callback, so each
// operation exercises the SetTimer → fire → OnTimer path end to end.
type timerNode struct {
	delay simtime.Duration
	seq   int64
}

func (tn *timerNode) Init(ctx sim.Context) {}
func (tn *timerNode) OnInvoke(ctx sim.Context, inv sim.Invocation) {
	tn.seq = inv.SeqID
	ctx.SetTimer(tn.delay, "fire")
}
func (tn *timerNode) OnMessage(ctx sim.Context, from sim.ProcID, payload any) {}
func (tn *timerNode) OnTimer(ctx sim.Context, tag any) {
	ctx.Respond(tn.seq, tag)
}

// TestTimerMapDrainsAfterFire is the regression test for the timer leak:
// fired timers must leave the engine's live-timer count, including
// zero-delay timers that are due the instant they are registered.
func TestTimerMapDrainsAfterFire(t *testing.T) {
	p := simtime.Params{N: 2, D: 40, U: 20, Epsilon: 10, X: 10}
	nodes := []sim.Node{&timerNode{delay: 0}, &timerNode{delay: 5}}
	c, err := NewCluster(Params{Params: p}, tick, sim.ZeroOffsets(2), nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	for i := 0; i < 50; i++ {
		proc := sim.ProcID(i % 2)
		ch, err := c.Invoke(proc, "op", i)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		select {
		case r := <-ch:
			if r.Ret != "fire" {
				t.Fatalf("op %d returned %v, want timer tag", i, r.Ret)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("op %d: timer never fired (firing dropped by registration race)", i)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.timerCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("timers did not drain: %d still armed", c.timerCount())
		}
		time.Sleep(time.Millisecond)
	}
}

// cancelNode registers a far-future timer on "set" and cancels it on
// every "cancel"; it responds at once either way.
type cancelNode struct{ id sim.TimerID }

func (cn *cancelNode) Init(sim.Context) {}
func (cn *cancelNode) OnInvoke(ctx sim.Context, inv sim.Invocation) {
	if inv.Op == "set" {
		cn.id = ctx.SetTimer(simtime.Duration(1e6), nil)
	} else {
		ctx.CancelTimer(cn.id)
	}
	ctx.Respond(inv.SeqID, nil)
}
func (cn *cancelNode) OnMessage(sim.Context, sim.ProcID, any) {}
func (cn *cancelNode) OnTimer(sim.Context, any)               {}

// TestTimerMapDrainsOnCancel asserts CancelTimer removes the entry.
func TestTimerMapDrainsOnCancel(t *testing.T) {
	p := simtime.Params{N: 2, D: 40, U: 20, Epsilon: 10, X: 10}
	nodes := []sim.Node{&cancelNode{}, &cancelNode{}}
	c, err := NewCluster(Params{Params: p}, tick, sim.ZeroOffsets(2), nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	mustCall(t, c, 0, "set", nil)
	if got := c.timerCount(); got != 1 {
		t.Fatalf("registered timers = %d, want 1", got)
	}
	mustCall(t, c, 0, "cancel", nil)
	if got := c.timerCount(); got != 0 {
		t.Fatalf("timers after cancel = %d, want 0", got)
	}
	// Canceling again is a no-op.
	mustCall(t, c, 0, "cancel", nil)
	if got := c.timerCount(); got != 0 {
		t.Fatalf("timers after double cancel = %d, want 0", got)
	}
}

// TestTimerMapDrainsOnStop asserts Stop clears entries of timers that
// never fired.
func TestTimerMapDrainsOnStop(t *testing.T) {
	c, _ := newQueueCluster(t, 3)
	c.Start()
	c.Call(0, "enqueue", 1) // leaves replication timers pending on peers
	c.Stop()
	if got := c.timerCount(); got != 0 {
		t.Fatalf("timers after Stop = %d, want 0", got)
	}
}

// churnNode makes every operation exercise each kind of per-operation
// bookkeeping the core has: a message to the peer and back, a timer that
// fires and is then canceled (Algorithm 1's drain pattern), and a timer
// canceled before it fires.
type churnNode struct {
	seq        int64
	fire, dead sim.TimerID
}

func (n *churnNode) Init(sim.Context) {}
func (n *churnNode) OnInvoke(ctx sim.Context, inv sim.Invocation) {
	n.seq = inv.SeqID
	ctx.Send(1-ctx.ID(), "ping")
}
func (n *churnNode) OnMessage(ctx sim.Context, from sim.ProcID, payload any) {
	if payload == "ping" {
		ctx.Send(from, "pong")
		return
	}
	n.fire = ctx.SetTimer(0, nil)
	n.dead = ctx.SetTimer(1<<20, nil)
}
func (n *churnNode) OnTimer(ctx sim.Context, _ any) {
	ctx.CancelTimer(n.fire)
	ctx.CancelTimer(n.dead)
	ctx.Respond(n.seq, nil)
}

// TestBookkeepingConstantOverUptime: a live cluster has no end, so
// nothing the core keeps may grow with the number of operations served.
// After 20 000 operations the schedule, the live timers, the trace and
// the pending set are as empty as after the first.
func TestBookkeepingConstantOverUptime(t *testing.T) {
	if testing.Short() {
		t.Skip("20 000 live operations")
	}
	// d = u = 1 makes every delay d−u = 0: no operation waits on the host.
	p := simtime.Params{N: 2, D: 1, U: 1, Epsilon: 0, X: 0}
	c, err := NewCluster(Params{Params: p}, 10*time.Microsecond, sim.ZeroOffsets(2), []sim.Node{&churnNode{}, &churnNode{}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	check := func(after int) {
		t.Helper()
		c.mu.Lock()
		defer c.mu.Unlock()
		tr := c.eng.Trace()
		if c.eng.Timers() != 0 || c.eng.QueueLen() > 1 || len(c.pending) != 0 ||
			len(tr.Ops)+len(tr.Msgs)+len(tr.Steps) != 0 {
			t.Fatalf("after %d operations: %d timers, %d events queued, %d calls pending, trace holds %d ops %d msgs %d steps; want nothing retained",
				after, c.eng.Timers(), c.eng.QueueLen(), len(c.pending), len(tr.Ops), len(tr.Msgs), len(tr.Steps))
		}
	}
	for i := 1; i <= 20000; i++ {
		mustCall(t, c, sim.ProcID(i%2), "op", nil)
		if i == 1 || i == 20000 {
			check(i)
		}
	}
}
