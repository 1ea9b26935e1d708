package rtnet

import (
	"errors"
	"testing"
	"time"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/core"
	"lintime/internal/obs"
	"lintime/internal/sim"
)

// TestSpanLifecycleRealTime drives one mutator through a live cluster
// with a collector attached and checks the full lifecycle lands in its
// tree: the invoke opens the span, the replica broadcast fans out, peers
// record deliveries, the stabilization timer fires, and the response
// closes the span — the real-time half of the sim span test.
func TestSpanLifecycleRealTime(t *testing.T) {
	p := rtParams(3)
	coll := obs.NewCollector(1024)
	c, _ := newQueueCluster(t, 3)
	c.SetTracer(coll)
	c.Start()
	defer c.Stop()

	r := mustCall(t, c, 0, adt.OpEnqueue, 7)
	time.Sleep(5 * time.Duration(p.D) * tick) // let replication settle

	var evs []obs.SpanEvent
	for _, tr := range coll.Trees() {
		if tr.Span == r.Seq {
			evs = tr.Events
		}
	}
	if len(evs) < 4 {
		t.Fatalf("span %d: got %d events %+v, want at least invoke/broadcast/deliver/respond", r.Seq, len(evs), evs)
	}
	counts := map[obs.Stage]int{}
	for _, ev := range evs {
		counts[ev.Stage]++
	}
	if counts[obs.StageInvoke] != 1 || counts[obs.StageRespond] != 1 {
		t.Fatalf("span %d must open and close exactly once: %v", r.Seq, counts)
	}
	if counts[obs.StageBroadcast] < 2 || counts[obs.StageDeliver] < 2 {
		t.Fatalf("mutator on 3 replicas must broadcast to and deliver at both peers: %v", counts)
	}
	if evs[0].Stage != obs.StageInvoke || evs[0].Op != adt.OpEnqueue {
		t.Fatalf("first span event: %+v, want the %s invoke", evs[0], adt.OpEnqueue)
	}
	last := evs[len(evs)-1]
	if last.Stage == obs.StageInvoke || last.Stage == obs.StageBroadcast {
		// Responds happen after the MOP wait (X+ε); late deliveries and
		// peer stabilization timers may trail it, but the span can never
		// end on its own opening stages.
		t.Fatalf("last span event: %+v", last)
	}
	for _, ev := range evs {
		if ev.Stage == obs.StageDeliver && ev.Time < ev.Sent {
			t.Fatalf("delivery landed before it was sent: %+v", ev)
		}
	}
}

// TestClusterMetrics wires rtnet.Metrics into a live cluster and checks
// the counters and the delivery-latency histogram against the network
// envelope [d-u, d].
func TestClusterMetrics(t *testing.T) {
	p := rtParams(3)
	reg := obs.NewRegistry()
	c, _ := newQueueCluster(t, 3)
	m := NewMetrics(reg, p)
	c.SetMetrics(m)
	c.Start()
	defer c.Stop()

	mustCall(t, c, 0, adt.OpEnqueue, 1)
	mustCall(t, c, 1, adt.OpEnqueue, 2)
	time.Sleep(5 * time.Duration(p.D) * tick)

	if got := m.Delivered.Value(); got < 4 {
		t.Fatalf("delivered: got %d, want >= 4 (two mutators broadcast to two peers each)", got)
	}
	if got := m.TimerFires.Value(); got < 2 {
		t.Fatalf("timer fires: got %d, want >= 2 (one stabilization wait per mutator)", got)
	}
	if got := m.Overflows.Value(); got != 0 {
		t.Fatalf("overflows on a healthy run: %d", got)
	}
	s := m.MsgLatency.Summary()
	if s.Count != m.Delivered.Value() {
		t.Fatalf("latency samples %d != delivered %d", s.Count, m.Delivered.Value())
	}
	// Scheduled delays obey [d-u, d]; handling adds real-time slack on
	// top (never removes it), and tick truncation can shave one tick.
	if s.Min < int64(p.D-p.U)-1 {
		t.Fatalf("min latency %d below the d-u bound %d", s.Min, p.D-p.U)
	}
	if s.Max > 4*int64(p.D) {
		t.Fatalf("max latency %d implausibly above d (%d): handling stalled?", s.Max, p.D)
	}
	if got := m.InboxMax.Value(); got < 1 {
		t.Fatalf("inbox high-water: got %d, want >= 1", got)
	}
	// One lateness sample per dispatched event: the two invocations, every
	// delivery, every timer fire.
	late := m.WakeLate.Summary()
	if want := 2 + m.Delivered.Value() + m.TimerFires.Value(); late.Count != want {
		t.Fatalf("wake-lateness samples %d, want %d (one per dispatched event)", late.Count, want)
	}
	if late.Max > int64(p.U/2)*int64(tick/time.Microsecond) {
		t.Fatalf("an event was dispatched %d us late on an idle cluster: past the u/2 margin", late.Max)
	}
}

// TestOverflowCountersAndLastProc pins satellite telemetry for the
// bounded-inbox failure: the overflow counter and last-proc gauge must
// record the event alongside the sticky typed error.
func TestOverflowCountersAndLastProc(t *testing.T) {
	p := rtParams(2)
	dt, _ := adt.Lookup("queue")
	classes := classify.Classify(dt, classify.DefaultConfig()).Classes()
	nodes := core.NewReplicas(2, dt, classes, core.DefaultTimers(p))
	reg := obs.NewRegistry()
	c, err := NewCluster(Params{Params: p, InboxDepth: 1}, tick, sim.ZeroOffsets(2), nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.SetMetrics(NewMetrics(reg, p))
	if got, proc := c.Overflows(), c.LastOverflowProc(); got != 0 || proc != -1 {
		t.Fatalf("pre-overflow state: count=%d proc=%d, want 0/-1", got, proc)
	}

	// Not started: nothing drains the depth-1 inbox, so the second
	// invocation at proc 1 overflows.
	if _, err := c.Invoke(1, adt.OpEnqueue, 1); err != nil {
		t.Fatal(err)
	}
	_, err = c.Invoke(1, adt.OpEnqueue, 2)
	var overflow *InboxOverflowError
	if !errors.As(err, &overflow) {
		t.Fatalf("second invoke returned %v, want *InboxOverflowError", err)
	}
	if got := c.Overflows(); got != 1 {
		t.Fatalf("Overflows() = %d, want 1", got)
	}
	if got := c.LastOverflowProc(); got != 1 {
		t.Fatalf("LastOverflowProc() = %d, want 1", got)
	}
	snap := obs.TakeSnapshot(reg)
	if snap.Counters["rtnet_inbox_overflows_total"] != 1 {
		t.Fatalf("overflow counter: %+v", snap.Counters)
	}
}
