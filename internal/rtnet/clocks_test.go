package rtnet

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/core"
	"lintime/internal/obs"
	"lintime/internal/quorum"
	"lintime/internal/sim"
	"lintime/internal/simtime"
)

// The two clocks are one core: the same nodes, the same explicit delay
// vector and the same invocation plan must produce the same run whether
// sim.Engine.RunUntil jumps through virtual time or the cluster's
// scheduler sleeps through wall time — same return values, same event
// sequence at every process, same global event order (StepSignature).
//
// The plan spaces events of different causal chains at least three ticks
// apart, far more than the host's timer lateness at this tick, so the
// wall clock cannot legitimately reorder them. Events one handler
// schedules for the same instant (a broadcast's equal delays, a delivery
// and a timer due together) stay at exactly the same instant on both
// clocks, so those ties exercise the engine's deliveries-before-timers
// order: a shell with an ordering of its own fails here.

const clocksTick = 2 * time.Millisecond

// planned is one invocation of the plan; at is in ticks.
type planned struct {
	at   simtime.Time
	proc sim.ProcID
	op   string
	arg  any
}

// recNode logs the events its process handles, in order. Payloads and
// tags are logged by type: their contents carry local-clock readings,
// which differ between a scheduled and a measured instant.
type recNode struct {
	sim.Node
	log *[]string
}

func (r recNode) OnInvoke(ctx sim.Context, inv sim.Invocation) {
	*r.log = append(*r.log, "invoke "+inv.Op)
	r.Node.OnInvoke(ctx, inv)
}
func (r recNode) OnMessage(ctx sim.Context, from sim.ProcID, payload any) {
	*r.log = append(*r.log, fmt.Sprintf("deliver p%d %T", from, payload))
	r.Node.OnMessage(ctx, from, payload)
}
func (r recNode) OnTimer(ctx sim.Context, tag any) {
	*r.log = append(*r.log, fmt.Sprintf("timer %T", tag))
	r.Node.OnTimer(ctx, tag)
}

func recorded(nodes []sim.Node) ([]sim.Node, [][]string) {
	logs := make([][]string, len(nodes))
	out := make([]sim.Node, len(nodes))
	for i, n := range nodes {
		out[i] = recNode{Node: n, log: &logs[i]}
	}
	return out, logs
}

// clockRun is what one run of the plan produced.
type clockRun struct {
	rets    []any
	logs    [][]string
	sig     uint64
	dropped []string // "span→proc" of every delivery dropped at a crashed process, sorted
}

// waypoints flattens the collector's completed trees into their events.
func waypoints(c *obs.Collector) []obs.SpanEvent {
	var out []obs.SpanEvent
	for _, tr := range c.Trees() {
		out = append(out, tr.Events...)
	}
	return out
}

func droppedIn(c *obs.Collector) []string {
	var out []string
	for _, ev := range waypoints(c) {
		if ev.Stage == obs.StageDropped {
			out = append(out, fmt.Sprintf("%d→p%d", ev.Span, ev.Proc))
		}
	}
	sort.Strings(out)
	return out
}

// clockCase is one configuration run on both clocks. crash, when ≥ 0,
// crashes that process at tick crashAt: by fault plan on the virtual
// clock, by Crash on the wall clock.
type clockCase struct {
	p       simtime.Params
	offsets []simtime.Duration
	net     sim.SequenceNetwork
	nodes   func() []sim.Node
	plan    []planned
	crash   sim.ProcID
	crashAt simtime.Time
	settle  simtime.Time // ticks after the last invocation by which the run is quiet
}

func (cc clockCase) virtual(t *testing.T) clockRun {
	t.Helper()
	nodes, logs := recorded(cc.nodes())
	eng, err := sim.NewEngine(cc.p, cc.offsets, cc.net, nodes)
	if err != nil {
		t.Fatal(err)
	}
	coll := obs.NewCollector(4096)
	eng.SetTracer(coll)
	if cc.crash >= 0 {
		crashes := make([]simtime.Time, cc.p.N)
		for i := range crashes {
			crashes[i] = simtime.Infinity
		}
		crashes[cc.crash] = cc.crashAt
		if err := eng.SetFaults(sim.FaultPlan{Crashes: crashes}); err != nil {
			t.Fatal(err)
		}
	}
	for _, inv := range cc.plan {
		eng.InvokeAt(inv.proc, inv.at, inv.op, inv.arg)
	}
	tr := eng.Run()
	if err := tr.CheckComplete(); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckAdmissible(); err != nil {
		t.Fatal(err)
	}
	rets := make([]any, len(tr.Ops))
	for _, op := range tr.Ops {
		rets[op.SeqID] = op.Ret
	}
	return clockRun{rets: rets, logs: logs, sig: eng.StepSignature(), dropped: droppedIn(coll)}
}

func (cc clockCase) wall(t *testing.T) clockRun {
	t.Helper()
	nodes, logs := recorded(cc.nodes())
	c, err := NewCluster(Params{Params: cc.p}, clocksTick, cc.offsets, nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.UseNetwork(cc.net)
	coll := obs.NewCollector(4096)
	c.SetTracer(coll)
	c.Start()
	defer c.Stop()
	until := func(at simtime.Time) { time.Sleep(time.Until(c.start.Add(time.Duration(at) * clocksTick))) }
	crashed := cc.crash < 0
	resps := make([]<-chan Response, len(cc.plan))
	for i, inv := range cc.plan {
		if !crashed && cc.crashAt <= inv.at {
			until(cc.crashAt)
			c.Crash(cc.crash)
			crashed = true
		}
		until(inv.at)
		if resps[i], err = c.Invoke(inv.proc, inv.op, inv.arg); err != nil {
			t.Fatal(err)
		}
	}
	rets := make([]any, len(cc.plan))
	for i, ch := range resps {
		select {
		case r := <-ch:
			if r.Seq != int64(i) {
				t.Fatalf("invocation %d got seq %d: the plan's order is the engine's op numbering on both clocks", i, r.Seq)
			}
			rets[i] = r.Ret
		case <-time.After(10 * time.Second):
			t.Fatalf("invocation %d never responded", i)
		}
	}
	until(cc.plan[len(cc.plan)-1].at + cc.settle)
	c.mu.Lock()
	defer c.mu.Unlock()
	if at, proc := c.eng.Next(); at != simtime.Infinity {
		t.Fatalf("the run is not quiet at the settle mark: p%d has an event scheduled", proc)
	}
	return clockRun{rets: rets, logs: logs, sig: c.eng.StepSignature(), dropped: droppedIn(coll)}
}

func (cc clockCase) run(t *testing.T) {
	t.Parallel()
	v, w := cc.virtual(t), cc.wall(t)
	if !reflect.DeepEqual(v.rets, w.rets) {
		t.Errorf("return values differ:\nvirtual %v\nwall    %v", v.rets, w.rets)
	}
	for p := range v.logs {
		if !reflect.DeepEqual(v.logs[p], w.logs[p]) {
			t.Errorf("p%d handled different event sequences:\nvirtual %q\nwall    %q", p, v.logs[p], w.logs[p])
		}
	}
	if v.sig != w.sig {
		t.Errorf("StepSignature differs: virtual %x, wall %x (same per-process sequences, different global order)", v.sig, w.sig)
	}
	if !reflect.DeepEqual(v.dropped, w.dropped) {
		t.Errorf("dropped deliveries differ:\nvirtual %v\nwall    %v", v.dropped, w.dropped)
	}
	if cc.crash >= 0 && len(v.dropped) == 0 {
		t.Error("the plan was meant to drop deliveries at the crashed process")
	}
}

// TestClocksAgreeAlgorithm1 runs a queue under Algorithm 1: one
// operation of each class, plus a mutator whose broadcast uses the
// minimum delay d−u for both peers — both deliveries and the sender's own
// d−u self-add timer then fall on one instant.
func TestClocksAgreeAlgorithm1(t *testing.T) {
	p := rtParams(3) // d 40, u 20, ε 14, X 10
	dt, _ := adt.Lookup("queue")
	classes := classify.Classify(dt, classify.DefaultConfig()).Classes()
	clockCase{
		p:       p,
		offsets: sim.SpreadOffsets(3, p.Epsilon),
		// In global send order. All inside [d−u, d−u/2], where UseNetwork's
		// clamp changes nothing.
		net: sim.SequenceNetwork{Delays: []simtime.Duration{27, 30, 20, 20, 30, 27}, Default: 20},
		nodes: func() []sim.Node {
			return core.NewReplicas(3, dt, classes, core.DefaultTimers(p))
		},
		plan: []planned{
			{0, 0, adt.OpEnqueue, 7},
			{100, 1, adt.OpEnqueue, 8},
			{200, 2, adt.OpDequeue, nil},
			{300, 0, adt.OpPeek, nil},
		},
		crash:  -1,
		settle: 100,
	}.run(t)
}

// TestClocksAgreeQuorumCrash runs the ABD register with process 2
// crashed between the first and second operation; every later request to
// it is a dropped delivery, the same ones on both clocks.
func TestClocksAgreeQuorumCrash(t *testing.T) {
	p := rtParams(3)
	p.Epsilon, p.X = 0, 0 // the quorum protocol reads no clocks
	// Requests to p1 take 20 ticks, to p2 24; acks from p1 23, from p2 27.
	// The first operation exchanges 8 messages, the later ones (p2 silent)
	// 6 each.
	alive := []simtime.Duration{20, 24, 23, 27, 20, 24, 23, 27}
	minus := []simtime.Duration{20, 24, 23, 20, 24, 23}
	delays := append(append(append([]simtime.Duration(nil), alive...), minus...), minus...)
	clockCase{
		p:       p,
		offsets: sim.ZeroOffsets(3),
		net:     sim.SequenceNetwork{Delays: delays, Default: 20},
		nodes: func() []sim.Node {
			nodes, err := quorumNodes(p)
			if err != nil {
				t.Fatal(err)
			}
			return nodes
		},
		plan: []planned{
			{0, 0, quorum.OpWrite, 7},
			{120, 1, quorum.OpWrite, 9},
			{240, 0, quorum.OpRead, nil},
		},
		crash:   2,
		crashAt: 110,
		settle:  100,
	}.run(t)
}
