package rtnet

import (
	"errors"
	"testing"
	"time"

	"lintime/internal/adt"
	"lintime/internal/harness"
	"lintime/internal/obs"
	"lintime/internal/quorum"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// quorumNodes builds the correct ABD replicas the way every consumer
// does: through the harness backend table.
func quorumNodes(p simtime.Params) ([]sim.Node, error) {
	b, err := harness.Lookup(harness.AlgQuorum)
	if err != nil {
		return nil, err
	}
	dt := adt.NewRegister(0)
	build, err := b.Builder(p, dt, "")
	if err != nil {
		return nil, err
	}
	return build(dt), nil
}

// newQuorumCluster builds an rtnet cluster running the ABD quorum
// register — the backend whose whole point is surviving the crashes this
// file injects.
func newQuorumCluster(t *testing.T, n int, depth int) *Cluster {
	t.Helper()
	p := rtParams(n)
	p.Epsilon, p.X = 0, 0 // the quorum protocol reads no clocks
	nodes, err := quorumNodes(p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Params{Params: p, InboxDepth: depth}, tick, sim.ZeroOffsets(n), nodes, 42)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCrashQuorumMajorityKeepsServing is the end-to-end story: crash a
// minority of an ABD cluster mid-run and the survivors keep completing
// reads and writes against the remaining majority, while the crashed
// process itself refuses invocations with ErrCrashed.
func TestCrashQuorumMajorityKeepsServing(t *testing.T) {
	reg := obs.NewRegistry()
	c := newQuorumCluster(t, 3, 0)
	m := NewMetrics(reg, rtParams(3))
	c.SetMetrics(m)
	c.Start()
	defer c.Stop()

	if r := mustCall(t, c, 0, quorum.OpWrite, 7); r.Ret != nil {
		t.Errorf("write returned %v", r.Ret)
	}
	c.Crash(2)
	if !c.Crashed(2) {
		t.Fatal("Crashed(2) = false after Crash")
	}
	if got := m.Crashes.Value(); got != 1 {
		t.Errorf("crashes_injected = %d, want 1", got)
	}
	if _, err := c.Call(2, quorum.OpRead, nil); !errors.Is(err, ErrCrashed) {
		t.Errorf("Call at crashed process returned %v, want ErrCrashed", err)
	}
	if _, err := c.Invoke(2, quorum.OpRead, nil); !errors.Is(err, ErrCrashed) {
		t.Errorf("Invoke at crashed process returned %v, want ErrCrashed", err)
	}
	// The two survivors are a majority: both phases still reach quorum.
	if r := mustCall(t, c, 0, quorum.OpRead, nil); !spec.ValuesEqual(r.Ret, 7) {
		t.Errorf("post-crash read at p0 returned %v, want 7", r.Ret)
	}
	if r := mustCall(t, c, 1, quorum.OpWrite, 9); r.Ret != nil {
		t.Errorf("post-crash write returned %v", r.Ret)
	}
	if r := mustCall(t, c, 1, quorum.OpRead, nil); !spec.ValuesEqual(r.Ret, 9) {
		t.Errorf("post-crash read at p1 returned %v, want 9", r.Ret)
	}
	if err := c.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain after crash: %v", err)
	}
	if c.Err() != nil {
		t.Fatalf("cluster recorded failure: %v", c.Err())
	}
}

// TestCrashedInboxDrainsWithoutOverflow is the misattribution
// regression: a crashed process keeps receiving quorum traffic (live
// writers broadcast to every replica, dead or not), and with a tiny
// backlog bound those deliveries must not fail the whole cluster with an
// InboxOverflowError blamed on a process that is merely dead. The engine
// consumes them instead, recording each as a dropped delivery in metrics
// and trace.
func TestCrashedInboxDrainsWithoutOverflow(t *testing.T) {
	reg := obs.NewRegistry()
	coll := obs.NewCollector(4096)
	c := newQuorumCluster(t, 3, 2)
	m := NewMetrics(reg, rtParams(3))
	c.SetMetrics(m)
	c.SetTracer(coll)
	c.Start()
	defer c.Stop()

	c.Crash(2)
	// Each write broadcasts two phases to both peers: 16 writes push 32
	// deliveries through p2's depth-2 inbox.
	for i := 0; i < 16; i++ {
		if _, err := c.Call(0, quorum.OpWrite, i); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := c.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cluster failed: %v (the overflow is misattributed to the crashed process)", err)
	}
	if got := c.Overflows(); got != 0 {
		t.Errorf("Overflows() = %d, want 0", got)
	}
	if got := m.CrashDrops.Value(); got < 32 {
		t.Errorf("post-crash drops = %d, want >= 32", got)
	}
	dropped := 0
	for _, ev := range waypoints(coll) {
		if ev.Stage == obs.StageDropped {
			dropped++
			if ev.Proc != 2 {
				t.Errorf("dropped delivery attributed to p%d, want p2", ev.Proc)
			}
		}
	}
	if dropped < 32 {
		t.Errorf("trace recorded %d dropped deliveries, want >= 32", dropped)
	}
}

// slowTimerNode registers one far-future timer per invocation and
// responds immediately; it never sends, so every registered timer stays
// live until canceled.
type slowTimerNode struct{}

func (slowTimerNode) Init(sim.Context) {}
func (slowTimerNode) OnInvoke(ctx sim.Context, inv sim.Invocation) {
	ctx.SetTimer(1<<20, nil)
	ctx.Respond(inv.SeqID, nil)
}
func (slowTimerNode) OnMessage(sim.Context, sim.ProcID, any) {}
func (slowTimerNode) OnTimer(sim.Context, any)               {}

// TestCrashCancelsTimers is the timer-leak regression: timers are
// attributed to their registering process and Crash cancels exactly that
// process's entries. (A handler can no longer race with the crash and
// re-register one: handlers and Crash are serialized, and a crashed
// process takes no step.)
func TestCrashCancelsTimers(t *testing.T) {
	p := rtParams(2)
	nodes := []sim.Node{slowTimerNode{}, slowTimerNode{}}
	c, err := NewCluster(Params{Params: p}, tick, sim.ZeroOffsets(2), nodes, 7)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	mustCall(t, c, 0, "noop", nil)
	mustCall(t, c, 1, "noop", nil)
	if got := c.timerCount(); got != 2 {
		t.Fatalf("timerCount = %d before crash, want 2", got)
	}
	c.Crash(1)
	if got := c.timerCount(); got != 1 {
		t.Errorf("timerCount = %d after crashing p1, want 1 (p0's timer must survive)", got)
	}
	if _, err := c.Call(1, "noop", nil); !errors.Is(err, ErrCrashed) {
		t.Errorf("Call at the crashed process returned %v, want ErrCrashed", err)
	}
	mustCall(t, c, 0, "noop", nil)
	if got := c.timerCount(); got != 2 {
		t.Errorf("timerCount = %d after another op at p0, want 2", got)
	}
}

// blockNode accepts invocations and never responds.
type blockNode struct{}

func (blockNode) Init(sim.Context)                       {}
func (blockNode) OnInvoke(sim.Context, sim.Invocation)   {}
func (blockNode) OnMessage(sim.Context, sim.ProcID, any) {}
func (blockNode) OnTimer(sim.Context, any)               {}

// TestCrashFailsPendingCall pins the unblocking contract: a Call waiting
// on an operation at the crashed process returns ErrCrashed instead of
// hanging, the pending set empties so Drain returns promptly, and the
// rest of the cluster is unaffected.
func TestCrashFailsPendingCall(t *testing.T) {
	p := rtParams(2)
	nodes := []sim.Node{blockNode{}, blockNode{}}
	c, err := NewCluster(Params{Params: p}, tick, sim.ZeroOffsets(2), nodes, 7)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	errc := make(chan error, 1)
	go func() {
		_, err := c.Call(1, "stuck", nil)
		errc <- err
	}()
	for c.Pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	c.Crash(1)
	select {
	case err := <-errc:
		if !errors.Is(err, ErrCrashed) {
			t.Errorf("blocked Call returned %v, want ErrCrashed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Call did not return after Crash")
	}
	if got := c.Pending(); got != 0 {
		t.Errorf("Pending() = %d after crash, want 0", got)
	}
	if err := c.Drain(time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
