package sim

import (
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"testing"

	"lintime/internal/simtime"
)

// runPingWorkload drives a deterministic 2-proc ping workload with timers
// on the given engine and returns its trace.
func runPingWorkload(t *testing.T, eng *Engine) *Trace {
	t.Helper()
	for i := 0; i < 8; i++ {
		eng.InvokeAt(0, simtime.Time(10+500*i), "ping", i)
	}
	eng.InvokeAt(1, 20, "ping", 99)
	tr := eng.Run()
	if err := tr.CheckComplete(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func pingConfig() (simtime.Params, []simtime.Duration, Network, func() []Node) {
	p := testParams(2)
	nodes := func() []Node {
		return []Node{&pingNode{peer: 1}, &pingNode{peer: 0}}
	}
	return p, []simtime.Duration{0, 15}, UniformNetwork{D: 90}, nodes
}

// TestResetNoStateLeak runs a workload, resets, reruns, and requires the
// second trace to be byte-identical to a fresh engine's — plus empty
// bookkeeping (queue, timer maps, pending ops) at every boundary.
func TestResetNoStateLeak(t *testing.T) {
	p, offs, net, mkNodes := pingConfig()

	reused, err := NewEngine(p, offs, net, mkNodes())
	if err != nil {
		t.Fatal(err)
	}
	first := runPingWorkload(t, reused)

	checkDrained := func(stage string) {
		t.Helper()
		if n := reused.QueueLen(); n != 0 {
			t.Fatalf("%s: %d events still queued", stage, n)
		}
		if reused.Timers() != 0 {
			t.Fatalf("%s: %d timers still registered", stage, reused.Timers())
		}
		for p, o := range reused.ops {
			if o.open {
				t.Fatalf("%s: op %d still pending at p%d", stage, o.rec.SeqID, p)
			}
		}
	}
	checkDrained("after first run")

	if err := reused.Reset(p, offs, net, mkNodes()); err != nil {
		t.Fatal(err)
	}
	if reused.Now() != 0 {
		t.Fatalf("Now = %v after Reset", reused.Now())
	}
	if got := reused.Trace(); len(got.Steps) != 0 || len(got.Msgs) != 0 || len(got.Ops) != 0 {
		t.Fatalf("trace not empty after Reset: %d/%d/%d",
			len(got.Steps), len(got.Msgs), len(got.Ops))
	}
	if reused.Timers() != 0 {
		t.Fatalf("timer table has %d stale entries after Reset", reused.Timers())
	}
	if reused.OnRespond != nil {
		t.Fatal("OnRespond survived Reset")
	}
	if reused.StepSignature() != fnvOffset {
		t.Fatal("step signature not rearmed by Reset")
	}

	second := runPingWorkload(t, reused)
	checkDrained("after second run")

	fresh, err := NewEngine(p, offs, net, mkNodes())
	if err != nil {
		t.Fatal(err)
	}
	want := runPingWorkload(t, fresh)

	if !reflect.DeepEqual(second, want) {
		t.Fatalf("reused-engine trace diverged from fresh engine:\nreused: %+v\nfresh:  %+v", second, want)
	}
	// The first run's trace must have survived the Reset + rerun intact:
	// results escape to callers (harness.Result, adversary.Outcome) and are
	// read after the engine has moved on.
	if !reflect.DeepEqual(first, want) {
		t.Fatal("first run's escaped trace was corrupted by Reset/rerun")
	}
	if &first.Ops[0] == &second.Ops[0] {
		t.Fatal("reused engine handed out the same Ops backing array twice")
	}
}

// TestResetConcurrentEscapedTraces exercises the escape contract under
// -race: readers walk traces from earlier runs while the engine reruns.
func TestResetConcurrentEscapedTraces(t *testing.T) {
	p, offs, net, mkNodes := pingConfig()
	eng, err := NewEngine(p, offs, net, mkNodes())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for run := 0; run < 10; run++ {
		if run > 0 {
			if err := eng.Reset(p, offs, net, mkNodes()); err != nil {
				t.Fatal(err)
			}
		}
		tr := runPingWorkload(t, eng)
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for _, st := range tr.Steps {
				n += int(st.Kind)
			}
			for _, op := range tr.Ops {
				if op.RespondTime == simtime.Infinity {
					t.Error("escaped trace has incomplete op")
				}
			}
			_ = n
		}()
	}
	wg.Wait()
}

// TestResetRejectsBadConfig pins that Reset validates like NewEngine.
func TestResetRejectsBadConfig(t *testing.T) {
	p, offs, net, mkNodes := pingConfig()
	eng, err := NewEngine(p, offs, net, mkNodes())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Reset(p, offs[:1], net, mkNodes()); err == nil {
		t.Fatal("Reset accepted wrong offsets length")
	}
	if err := eng.Reset(p, offs, net, mkNodes()[:1]); err == nil {
		t.Fatal("Reset accepted wrong node count")
	}
}

// stepsSignature is the oracle: the fuzzer's FNV-1a hash over recorded
// Steps, which the engine's incremental StepSignature must reproduce.
func stepsSignature(tr *Trace) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 2)
	for _, st := range tr.Steps {
		buf[0] = byte(st.Kind)
		buf[1] = byte(st.Proc)
		h.Write(buf)
	}
	return h.Sum64()
}

// TestTraceLevels verifies each level runs the identical execution (same
// Ops, same step signature) while dropping only the records it promises
// to drop.
func TestTraceLevels(t *testing.T) {
	p, offs, net, mkNodes := pingConfig()

	run := func(level TraceLevel) (*Engine, *Trace) {
		eng, err := NewEngine(p, offs, net, mkNodes())
		if err != nil {
			t.Fatal(err)
		}
		eng.SetTraceLevel(level)
		return eng, runPingWorkload(t, eng)
	}

	fullEng, full := run(TraceFull)
	opsEng, ops := run(TraceOps)
	offEng, off := run(TraceOff)

	if len(full.Steps) == 0 || len(full.Msgs) == 0 {
		t.Fatal("TraceFull recorded nothing")
	}
	if got := fullEng.StepSignature(); got != stepsSignature(full) {
		t.Fatalf("incremental signature %x != Steps hash %x", got, stepsSignature(full))
	}

	if len(ops.Steps) != 0 {
		t.Fatalf("TraceOps recorded %d steps", len(ops.Steps))
	}
	if !reflect.DeepEqual(ops.Msgs, full.Msgs) {
		t.Fatal("TraceOps message records differ from TraceFull")
	}
	if !reflect.DeepEqual(ops.Ops, full.Ops) {
		t.Fatal("TraceOps op records differ from TraceFull")
	}
	if opsEng.StepSignature() != fullEng.StepSignature() {
		t.Fatal("step signature differs across trace levels")
	}
	if err := ops.CheckAdmissible(); err != nil {
		t.Fatalf("TraceOps trace not admissible: %v", err)
	}

	if len(off.Steps) != 0 || len(off.Msgs) != 0 {
		t.Fatalf("TraceOff recorded %d steps, %d msgs", len(off.Steps), len(off.Msgs))
	}
	if !reflect.DeepEqual(off.Ops, full.Ops) {
		t.Fatal("TraceOff op records differ from TraceFull")
	}
	if offEng.StepSignature() != fullEng.StepSignature() {
		t.Fatal("step signature differs with tracing off")
	}
}

// TestSetTraceLevelAfterStartPanics pins the misuse guard.
func TestSetTraceLevelAfterStartPanics(t *testing.T) {
	p, offs, net, mkNodes := pingConfig()
	eng, err := NewEngine(p, offs, net, mkNodes())
	if err != nil {
		t.Fatal(err)
	}
	eng.InvokeAt(0, 10, "ping", 0)
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("SetTraceLevel after start did not panic")
		}
	}()
	eng.SetTraceLevel(TraceOps)
}

// TestEngineEventsAllocateNothing pins the engine's hot loop: on a reused
// engine, warmed up so the queue and the trace slices have their sizes,
// a run costs a fixed handful of allocations (the fresh trace Reset hands
// out) however many events it processes — send, deliver, trace append and
// queue push/pop allocate nothing per event, with metrics and tracing off.
func TestEngineEventsAllocateNothing(t *testing.T) {
	p := simtime.Params{N: 8, D: 100, U: 40, Epsilon: 30, X: 20}
	offs, net := ZeroOffsets(p.N), UniformNetwork{D: p.D}
	perRun := func(hops int) float64 {
		nodes := make([]Node, p.N)
		for j := range nodes {
			nodes[j] = &pingChain{hops: hops}
		}
		eng, err := NewEngine(p, offs, net, nodes)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if err := eng.Reset(p, offs, net, nodes); err != nil {
				t.Fatal(err)
			}
			eng.InvokeAt(0, 0, "ring", nil)
			if err := eng.Run().CheckComplete(); err != nil {
				t.Fatal(err)
			}
		}
		// A garbage collection that falls inside a run (and, under -race,
		// the detector's bookkeeping) allocates now and then: the cheapest
		// single run is the engine's own cost. AllocsPerRun's warm-up call
		// sizes the trace hints.
		best := math.Inf(1)
		for i := 0; i < 10; i++ {
			best = min(best, testing.AllocsPerRun(1, run))
		}
		return best
	}
	short, long := perRun(250), perRun(1000)
	if long != short {
		t.Errorf("%.0f allocs for a 1000-event run, %.0f for a 250-event one: %.4f per event, want 0",
			long, short, (long-short)/750)
	}
	// The fixed part: the Trace, its offsets copy and its three slices.
	if short > 5 {
		t.Errorf("%.0f allocs per reused-engine run, recorded 5", short)
	}
}
