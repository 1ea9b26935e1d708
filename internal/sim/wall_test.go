package sim

import (
	"reflect"
	"testing"

	"lintime/internal/obs"
	"lintime/internal/simtime"
)

// fireThenCancel sets a timer per invocation and cancels it from its own
// fire — Algorithm 1's drain pattern, which cancels the execute timer of
// the very entry whose timer just fired.
type fireThenCancel struct{ id TimerID }

func (n *fireThenCancel) Init(Context) {}
func (n *fireThenCancel) OnInvoke(ctx Context, inv Invocation) {
	n.id = ctx.SetTimer(5, inv.SeqID)
}
func (n *fireThenCancel) OnMessage(Context, ProcID, any) {}
func (n *fireThenCancel) OnTimer(ctx Context, tag any) {
	ctx.CancelTimer(n.id)
	ctx.Respond(tag.(int64), nil)
}

// TestCancelAfterFireLeavesNoEntry is the leak regression: canceling a
// timer that already fired used to record an entry nothing ever deleted,
// so a long-lived engine grew by one entry per operation.
func TestCancelAfterFireLeavesNoEntry(t *testing.T) {
	eng := newEngine(t, testParams(1), ZeroOffsets(1), UniformNetwork{D: 100}, []Node{&fireThenCancel{}})
	for i := 0; i < 1000; i++ {
		eng.InvokeAt(0, simtime.Time(10*i), "op", nil)
	}
	if err := eng.Run().CheckComplete(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Timers(); got != 0 {
		t.Fatalf("%d timer entries left after 1000 fire-then-cancel operations, want 0", got)
	}
}

// wallNode records what a node sees of time.
type wallNode struct {
	nows []simtime.Time
}

func (n *wallNode) Init(Context) {}
func (n *wallNode) OnInvoke(ctx Context, inv Invocation) {
	n.nows = append(n.nows, ctx.Now())
	ctx.SetTimer(3, inv.SeqID)
}
func (n *wallNode) OnMessage(Context, ProcID, any) {}
func (n *wallNode) OnTimer(ctx Context, tag any) {
	n.nows = append(n.nows, ctx.Now())
	ctx.Respond(tag.(int64), nil)
}

// TestStepMeasuredTimeAndTickUnit drives the wall clock's entry points by
// hand on a timeline of 1000 steps per tick: a wait of k ticks ends
// k·1000 steps after the measured instant it was registered at (not at a
// tick boundary), dispatch happens at the instant the caller supplies,
// the operation begins at the instant it was invoked, nodes and records
// see ticks, and at TraceNone the finished operation goes to OnRespond
// and nowhere else.
func TestStepMeasuredTimeAndTickUnit(t *testing.T) {
	node := &wallNode{}
	eng := newEngine(t, testParams(1), ZeroOffsets(1), UniformNetwork{D: 100}, []Node{node})
	eng.SetTickUnit(1000)
	eng.SetTraceLevel(TraceNone)
	var done []OpRecord
	eng.OnRespond = func(rec OpRecord) { done = append(done, rec) }

	eng.InvokeAt(0, 2100, "op", nil)
	if at, p := eng.Next(); at != 2100 || p != 0 {
		t.Fatalf("Next = (%v, p%d), want the invocation at 2100 on p0", at, p)
	}
	if got := eng.Due(0, 2099); got != 0 {
		t.Fatalf("Due before the invocation's instant = %d, want 0", got)
	}
	if got := eng.Due(0, 2100); got != 1 {
		t.Fatalf("Due at the invocation's instant = %d, want 1", got)
	}
	// The host wakes 700 steps late: the handler runs at 2800, and its
	// 3-tick timer is due 3000 steps after that, mid-tick.
	if !eng.Step(2800) {
		t.Fatal("Step did not dispatch the invocation")
	}
	if at, _ := eng.Next(); at != 5800 {
		t.Fatalf("timer scheduled at %v, want 2800+3·1000 = 5800", at)
	}
	eng.Step(6400)
	if at, _ := eng.Next(); at != simtime.Infinity {
		t.Fatalf("Next on an empty schedule = %v, want Infinity", at)
	}
	if want := []simtime.Time{2, 6}; !reflect.DeepEqual(node.nows, want) {
		t.Fatalf("node saw times %v, want ticks %v", node.nows, want)
	}
	if len(done) != 1 || done[0].InvokeTime != 2 || done[0].RespondTime != 6 {
		t.Fatalf("completed ops %+v, want one with invoke tick 2 (invoked at 2100) and respond tick 6", done)
	}
	if tr := eng.Trace(); len(tr.Ops)+len(tr.Msgs)+len(tr.Steps) != 0 {
		t.Fatalf("TraceNone retained %d ops, %d msgs, %d steps", len(tr.Ops), len(tr.Msgs), len(tr.Steps))
	}
}

// TestNextSkipsCanceledTimers: a wall clock must not be told to sleep
// until a timer that will never fire.
func TestNextSkipsCanceledTimers(t *testing.T) {
	eng := newEngine(t, testParams(1), ZeroOffsets(1), UniformNetwork{D: 100}, []Node{&cancelNode{}})
	eng.InvokeAt(0, 0, "op", nil)
	eng.Step(0) // sets timers at 10 and 20, cancels the one at 10
	if got := eng.Due(0, 15); got != 0 {
		t.Fatalf("Due counts the canceled timer: %d", got)
	}
	if at, _ := eng.Next(); at != 20 {
		t.Fatalf("Next = %v, want the live timer at 20", at)
	}
	if got := eng.QueueLen(); got != 1 {
		t.Fatalf("canceled timer still queued: %d events", got)
	}
}

// TestLiveCrash crashes a process between two steps of a run, as a live
// cluster does: its timers are canceled at once, a delivery in flight to
// it is dropped (counted and traced), a later invocation there vanishes,
// and the crash is counted where a fault plan's would be.
func TestLiveCrash(t *testing.T) {
	p := testParams(2)
	reg := obs.NewRegistry()
	m := &EngineMetrics{Crashes: reg.Counter("crashes"), CrashDrops: reg.Counter("drops")}
	coll := obs.NewCollector(64)
	eng := newEngine(t, p, ZeroOffsets(2), UniformNetwork{D: 100}, []Node{&spanNode{peer: 1, delay: 200}, &timerNode{delay: 100}})
	eng.SetMetrics(m)
	eng.SetTracer(coll)
	eng.InvokeAt(1, 0, "wait", nil)
	update := eng.InvokeAt(0, 10, "inc", nil)
	eng.RunUntil(50) // p1 has a timer pending, p0's update is in flight to p1
	if got := eng.Timers(); got != 2 {
		t.Fatalf("timers before the crash = %d, want p0's and p1's", got)
	}
	eng.Crash(1)
	eng.Crash(1) // idempotent
	if !eng.Crashed(1) || eng.Crashed(0) {
		t.Fatalf("Crashed = (p0 %v, p1 %v), want only p1", eng.Crashed(0), eng.Crashed(1))
	}
	if got := eng.Timers(); got != 1 {
		t.Fatalf("timers after the crash = %d, want p0's alone", got)
	}
	eng.InvokeAt(1, 200, "ghost", nil)
	tr := eng.Run()
	if got := m.Crashes.Value(); got != 1 {
		t.Errorf("crashes counted = %d, want 1", got)
	}
	if got := m.CrashDrops.Value(); got != 1 {
		t.Errorf("post-crash drops counted = %d, want 1", got)
	}
	var dropped []obs.SpanEvent
	for _, ev := range spanEvents(coll, update) {
		if ev.Stage == obs.StageDropped {
			dropped = append(dropped, ev)
		}
	}
	if len(dropped) != 1 || dropped[0].Proc != 1 {
		t.Errorf("dropped-delivery events of span %d: %+v, want one at p1", update, dropped)
	}
	if len(tr.Ops) != 2 {
		t.Errorf("trace has %d ops, want 2 (the ghost invocation leaves no record)", len(tr.Ops))
	}
	if err := tr.CheckAdmissible(); err != nil {
		t.Errorf("trace of a live crash is not admissible: %v", err)
	}
	if err := tr.CheckCompleteExceptCrashed(); err != nil {
		t.Errorf("the only pending operation sits at crashed p1: %v", err)
	}
}
