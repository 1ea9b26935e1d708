package sim

import (
	"reflect"
	"testing"

	"lintime/internal/obs"
	"lintime/internal/simtime"
)

// spanNode exercises every lifecycle stage in one operation: the invoke
// broadcasts an update to a peer and arms a stabilization timer longer
// than the delivery bound, so the collector must record
// invoke → broadcast → deliver → timer → respond in that order.
type spanNode struct {
	peer  ProcID
	delay simtime.Duration
}

func (n *spanNode) Init(Context) {}
func (n *spanNode) OnInvoke(ctx Context, inv Invocation) {
	ctx.Send(n.peer, "update")
	ctx.SetTimer(n.delay, inv.SeqID)
}
func (n *spanNode) OnMessage(Context, ProcID, any) {}
func (n *spanNode) OnTimer(ctx Context, tag any) {
	ctx.Respond(tag.(int64), "ok")
}

// spanEvents returns the waypoints of one completed span in canonical
// order, or nil when the collector holds no complete tree for it.
func spanEvents(c *obs.Collector, span int64) []obs.SpanEvent {
	for _, tr := range c.Trees() {
		if tr.Span == span {
			return tr.Events
		}
	}
	return nil
}

func TestSpanLifecycleOrder(t *testing.T) {
	p := testParams(2)
	coll := obs.NewCollector(64)
	eng := newEngine(t, p, ZeroOffsets(2), UniformNetwork{D: p.D},
		[]Node{&spanNode{peer: 1, delay: p.D + 50}, &spanNode{peer: 0, delay: p.D + 50}})
	eng.SetTracer(coll)
	seq := eng.InvokeAt(0, 10, "inc", 1)
	tr := eng.Run()
	if err := tr.CheckComplete(); err != nil {
		t.Fatal(err)
	}

	evs := spanEvents(coll, seq)
	wantStages := []obs.Stage{obs.StageInvoke, obs.StageBroadcast, obs.StageDeliver,
		obs.StageTimer, obs.StageRespond}
	if len(evs) != len(wantStages) {
		t.Fatalf("span %d: got %d events %+v, want stages %v", seq, len(evs), evs, wantStages)
	}
	for i, ev := range evs {
		if ev.Stage != wantStages[i] {
			t.Fatalf("span %d event %d: got %v, want %v (all: %+v)", seq, i, ev.Stage, wantStages[i], evs)
		}
	}
	if evs[0].Op != "inc" || evs[0].Proc != 0 || evs[0].Time != 10 {
		t.Fatalf("invoke event: %+v", evs[0])
	}
	if evs[2].Proc != 1 {
		t.Fatalf("deliver landed on proc %d, want the peer 1", evs[2].Proc)
	}
	// Delivery obeys the network envelope [d-u, d] after the broadcast,
	// and the timer fires strictly later by construction.
	if lat := evs[2].Time - evs[1].Time; lat < int64(p.D-p.U) || lat > int64(p.D) {
		t.Fatalf("delivery latency %d outside [%d, %d]", lat, p.D-p.U, p.D)
	}
	if evs[3].Time != 10+int64(p.D+50) {
		t.Fatalf("timer fired at %d, want %d", evs[3].Time, 10+int64(p.D+50))
	}
	if evs[4].Time != evs[3].Time {
		t.Fatalf("respond at %d, want the timer tick %d", evs[4].Time, evs[3].Time)
	}
}

// TestSpanAttributionAcrossOps runs two sequential operations and checks
// events never leak across spans, and that the collector stays
// untouched after it is detached.
func TestSpanAttributionAcrossOps(t *testing.T) {
	p := testParams(2)
	coll := obs.NewCollector(64)
	eng := newEngine(t, p, ZeroOffsets(2), UniformNetwork{D: p.D},
		[]Node{&spanNode{peer: 1, delay: p.D + 50}, &spanNode{peer: 0, delay: p.D + 50}})
	eng.SetTracer(coll)
	s1 := eng.InvokeAt(0, 10, "a", nil)
	s2 := eng.InvokeAt(0, 1000, "b", nil)
	if tr := eng.Run(); tr.CheckComplete() != nil {
		t.Fatal("incomplete trace")
	}
	if n1, n2 := len(spanEvents(coll, s1)), len(spanEvents(coll, s2)); n1 != 5 || n2 != 5 {
		t.Fatalf("span events: s1=%d s2=%d, want 5 each", n1, n2)
	}
	for _, ev := range spanEvents(coll, s2) {
		if ev.Time < 1000 {
			t.Fatalf("span %d has an event from before its invoke: %+v", s2, ev)
		}
	}
	// Detaching (nil) stops recording without disturbing retained trees.
	eng.SetTracer(nil)
	before := coll.Trees()
	eng.InvokeAt(0, eng.Now().Add(10), "c", nil)
	eng.Run()
	if got := coll.Trees(); !reflect.DeepEqual(got, before) {
		t.Fatalf("collector changed after detach: %+v -> %+v", before, got)
	}
}

// TestEngineMetrics wires EngineMetrics and checks the event counter and
// queue high-water mark reflect a run.
func TestEngineMetrics(t *testing.T) {
	p := testParams(2)
	reg := obs.NewRegistry()
	m := &EngineMetrics{
		Events:   reg.Counter("sim_events_total"),
		QueueMax: reg.Max("sim_queue_max"),
	}
	eng := newEngine(t, p, ZeroOffsets(2), UniformNetwork{D: p.D},
		[]Node{&spanNode{peer: 1, delay: p.D + 50}, &spanNode{peer: 0, delay: p.D + 50}})
	eng.SetMetrics(m)
	eng.InvokeAt(0, 10, "a", nil)
	eng.Run()
	// One op dispatches invoke + deliver + timer = 3 events.
	if got := m.Events.Value(); got != 3 {
		t.Fatalf("events counter: got %d, want 3", got)
	}
	if got := m.QueueMax.Value(); got < 1 {
		t.Fatalf("queue high-water: got %d, want >= 1", got)
	}
}
