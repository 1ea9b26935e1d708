package rtnet

import (
	"errors"
	"testing"
	"time"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/core"
	"lintime/internal/lincheck"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// rtParams keeps the virtual magnitudes small so wall-clock runs stay
// short: d = 40 ticks at 1ms/tick → 40ms message delays.
func rtParams(n int) simtime.Params {
	u := simtime.Duration(20)
	return simtime.Params{N: n, D: 40, U: u, Epsilon: simtime.OptimalEpsilon(n, u), X: 10}
}

const tick = time.Millisecond

// mustCall invokes and waits, failing the test on a cluster error.
func mustCall(t *testing.T, c *Cluster, proc sim.ProcID, op string, arg any) Response {
	t.Helper()
	r, err := c.Call(proc, op, arg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func newQueueCluster(t *testing.T, n int) (*Cluster, []*core.Replica) {
	t.Helper()
	p := rtParams(n)
	dt, _ := adt.Lookup("queue")
	classes := classify.Classify(dt, classify.DefaultConfig()).Classes()
	replicas := make([]*core.Replica, n)
	nodes := make([]sim.Node, n)
	for i := range nodes {
		replicas[i] = core.NewReplica(dt, classes, core.DefaultTimers(p))
		nodes[i] = replicas[i]
	}
	c, err := NewCluster(Params{Params: p}, tick, sim.SpreadOffsets(n, p.Epsilon), nodes, 99)
	if err != nil {
		t.Fatal(err)
	}
	return c, replicas
}

func TestRealTimeQueueBasics(t *testing.T) {
	c, replicas := newQueueCluster(t, 3)
	c.Start()
	defer c.Stop()

	if r := mustCall(t, c, 0, adt.OpEnqueue, 7); r.Ret != nil {
		t.Errorf("enqueue returned %v", r.Ret)
	}
	if r := mustCall(t, c, 1, adt.OpEnqueue, 8); r.Ret != nil {
		t.Errorf("enqueue returned %v", r.Ret)
	}
	// Allow replication to settle, then observe from a third process.
	time.Sleep(5 * time.Duration(rtParams(3).D) * tick)
	if r := mustCall(t, c, 2, adt.OpPeek, nil); !spec.ValuesEqual(r.Ret, 7) {
		t.Errorf("peek returned %v, want 7", r.Ret)
	}
	if r := mustCall(t, c, 2, adt.OpDequeue, nil); !spec.ValuesEqual(r.Ret, 7) {
		t.Errorf("dequeue returned %v, want 7", r.Ret)
	}
	time.Sleep(5 * time.Duration(rtParams(3).D) * tick)
	fps := make([]string, len(replicas))
	for i, rep := range replicas {
		i, rep := i, rep
		c.Inspect(sim.ProcID(i), func() { fps[i] = rep.StateFingerprint() })
	}
	for i := range fps {
		if fps[i] != fps[0] {
			t.Errorf("replica %d diverged: %q vs %q", i, fps[i], fps[0])
		}
	}
}

func TestRealTimeLatencyApproximatesTheory(t *testing.T) {
	p := rtParams(3)
	c, _ := newQueueCluster(t, 3)
	c.Start()
	defer c.Stop()

	// Pure mutator: X+ε ticks, plus scheduling jitter.
	r := mustCall(t, c, 0, adt.OpEnqueue, 1)
	want := p.X + p.Epsilon
	if r.Latency() < want || r.Latency() > want+want/2+10 {
		t.Errorf("enqueue latency %v ticks, want ≈ %v", r.Latency(), want)
	}
	// Pure accessor: d-X+ε ticks.
	r = mustCall(t, c, 1, adt.OpPeek, nil)
	want = p.D - p.X + p.Epsilon
	if r.Latency() < want || r.Latency() > want+want/2+10 {
		t.Errorf("peek latency %v ticks, want ≈ %v", r.Latency(), want)
	}
}

func TestRealTimeConcurrentHistoryLinearizable(t *testing.T) {
	c, _ := newQueueCluster(t, 3)
	c.Start()
	defer c.Stop()

	// Three processes run small concurrent workloads; the collected
	// wall-clock history must be linearizable.
	type rec struct {
		proc sim.ProcID
		resp Response
	}
	results := make(chan rec, 32)
	scripts := [][]struct {
		op  string
		arg any
	}{
		{{adt.OpEnqueue, 1}, {adt.OpPeek, nil}, {adt.OpDequeue, nil}},
		{{adt.OpEnqueue, 2}, {adt.OpDequeue, nil}, {adt.OpPeek, nil}},
		{{adt.OpPeek, nil}, {adt.OpEnqueue, 3}, {adt.OpPeek, nil}},
	}
	donech := make(chan struct{})
	for proc, script := range scripts {
		proc, script := sim.ProcID(proc), script
		go func() {
			for _, s := range script {
				resp, err := c.Call(proc, s.op, s.arg)
				if err != nil {
					t.Error(err)
					break
				}
				results <- rec{proc, resp}
			}
			donech <- struct{}{}
		}()
	}
	for range scripts {
		<-donech
	}
	close(results)

	dt, _ := adt.Lookup("queue")
	var history []lincheck.Op
	id := 0
	for r := range results {
		history = append(history, lincheck.Op{
			ID:      id,
			Name:    r.resp.Op,
			Arg:     r.resp.Arg,
			Ret:     r.resp.Ret,
			Invoke:  r.resp.Invoke,
			Respond: r.resp.Respond,
		})
		id++
	}
	if len(history) != 9 {
		t.Fatalf("collected %d responses, want 9", len(history))
	}
	if !lincheck.Check(dt, history).Linearizable {
		t.Errorf("real-time history not linearizable: %+v", history)
	}
}

func TestRealTimeValidation(t *testing.T) {
	p := rtParams(2)
	dt, _ := adt.Lookup("queue")
	classes := classify.Classify(dt, classify.DefaultConfig()).Classes()
	nodes := core.NewReplicas(2, dt, classes, core.DefaultTimers(p))
	if _, err := NewCluster(Params{Params: p}, 0, sim.ZeroOffsets(2), nodes, 1); err == nil {
		t.Error("zero tick should error")
	}
	if _, err := NewCluster(Params{Params: p}, tick, sim.ZeroOffsets(3), nodes, 1); err == nil {
		t.Error("offsets length mismatch should error")
	}
	bad := p
	bad.U = p.D + 1
	if _, err := NewCluster(Params{Params: bad}, tick, sim.ZeroOffsets(2), nodes, 1); err == nil {
		t.Error("invalid params should error")
	}
}

func TestRealTimeStopTerminates(t *testing.T) {
	c, _ := newQueueCluster(t, 3)
	c.Start()
	mustCall(t, c, 0, adt.OpEnqueue, 5)
	done := make(chan struct{})
	go func() {
		c.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not terminate")
	}
}

// TestRealTimeUseNetwork drives the cluster's delays from a deterministic
// sim.Network instead of the random draw: the run must complete with the
// replicas converged, and out-of-range rule values must be clamped into
// the lower half of [d-u, d] (the band the default draw uses, chosen so
// scheduling jitter cannot push deliveries past d).
func TestRealTimeUseNetwork(t *testing.T) {
	p := rtParams(3)
	c, replicas := newQueueCluster(t, 3)
	// Rule asks for delays far outside the admissible window on both
	// sides; the cluster must clamp to [d-u, d-u/2].
	c.UseNetwork(sim.SequenceNetwork{
		Delays:  []simtime.Duration{0, 1 << 40, p.MinDelay(), p.MinDelay() + p.U/2},
		Default: p.MinDelay(),
	})
	c.Start()
	defer c.Stop()

	if r := mustCall(t, c, 0, adt.OpEnqueue, 5); r.Ret != nil {
		t.Errorf("enqueue returned %v", r.Ret)
	}
	time.Sleep(5 * time.Duration(p.D) * tick)
	if r := mustCall(t, c, 1, adt.OpPeek, nil); !spec.ValuesEqual(r.Ret, 5) {
		t.Errorf("peek returned %v, want 5", r.Ret)
	}
	time.Sleep(5 * time.Duration(p.D) * tick)
	fps := make([]string, len(replicas))
	for i, rep := range replicas {
		i, rep := i, rep
		c.Inspect(sim.ProcID(i), func() { fps[i] = rep.StateFingerprint() })
	}
	for i := range fps {
		if fps[i] != fps[0] {
			t.Errorf("replica %d diverged: %q vs %q", i, fps[i], fps[0])
		}
	}
}

// TestInboxOverflowTypedError pins the bounded-inbox contract: a post
// that finds the inbox full fails the cluster with a typed
// *InboxOverflowError instead of silently stalling the posting
// goroutine. The cluster is deliberately not started, so nothing drains
// the inbox and a depth-1 box overflows on the second invocation.
func TestInboxOverflowTypedError(t *testing.T) {
	p := rtParams(2)
	dt, _ := adt.Lookup("queue")
	classes := classify.Classify(dt, classify.DefaultConfig()).Classes()
	nodes := core.NewReplicas(2, dt, classes, core.DefaultTimers(p))
	c, err := NewCluster(Params{Params: p, InboxDepth: 1}, tick, sim.ZeroOffsets(2), nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.depth; got != 1 {
		t.Fatalf("inbox depth = %d, want 1", got)
	}
	if _, err := c.Invoke(0, adt.OpEnqueue, 1); err != nil {
		t.Fatalf("first invoke: %v", err)
	}
	_, err = c.Invoke(0, adt.OpEnqueue, 2)
	var overflow *InboxOverflowError
	if !errors.As(err, &overflow) {
		t.Fatalf("second invoke returned %v, want *InboxOverflowError", err)
	}
	if overflow.Proc != 0 || overflow.Depth != 1 {
		t.Errorf("overflow = %+v, want proc 0 depth 1", overflow)
	}
	if !errors.As(c.Err(), &overflow) {
		t.Errorf("Err() = %v, want the recorded overflow", c.Err())
	}
	// The failure is sticky: later calls fail fast, and Drain surfaces it.
	if _, err := c.Call(1, adt.OpPeek, nil); err == nil {
		t.Error("Call succeeded on a failed cluster")
	}
	if err := c.Drain(time.Second); !errors.As(err, &overflow) {
		t.Errorf("Drain() = %v, want the recorded overflow", err)
	}
}

// TestDefaultInboxDepth pins the lifted default.
func TestDefaultInboxDepth(t *testing.T) {
	c, _ := newQueueCluster(t, 2)
	if got := c.depth; got != DefaultInboxDepth {
		t.Fatalf("inbox depth = %d, want %d", got, DefaultInboxDepth)
	}
	if DefaultInboxDepth != 1024 {
		t.Fatalf("DefaultInboxDepth = %d, want the historical 1024", DefaultInboxDepth)
	}
	nodes := make([]sim.Node, 2)
	for i := range nodes {
		nodes[i] = echoTimerNode{}
	}
	p := rtParams(2)
	if _, err := NewCluster(Params{Params: p, InboxDepth: -1}, tick, sim.ZeroOffsets(2), nodes, 1); err == nil {
		t.Error("negative inbox depth should error")
	}
}

// echoTimerNode is a minimal node for constructor-validation tests.
type echoTimerNode struct{}

func (echoTimerNode) Init(sim.Context) {}
func (echoTimerNode) OnInvoke(ctx sim.Context, inv sim.Invocation) {
	ctx.Respond(inv.SeqID, inv.Arg)
}
func (echoTimerNode) OnMessage(sim.Context, sim.ProcID, any) {}
func (echoTimerNode) OnTimer(sim.Context, any)               {}
