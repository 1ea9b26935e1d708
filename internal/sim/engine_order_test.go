package sim

import (
	"container/heap"
	"math/rand"
	"testing"

	"lintime/internal/simtime"
)

// legacyEvent is what the ordering oracle queues: the ordering fields of
// an event, plus the armed bit a cancel clears and whether it was popped.
type legacyEvent struct {
	time   simtime.Time
	kind   eventKind
	seq    int64
	armed  bool
	popped bool
}

// legacyEventHeap is the original event queue (heap-boxed events via
// container/heap, ordered by time, kind rank, seq), kept as the ordering
// oracle for the 4-ary key heap. If the two ever disagree on pop order,
// golden outputs across the whole pipeline would shift.
type legacyEventHeap []*legacyEvent

func (h legacyEventHeap) Len() int { return len(h) }
func (h legacyEventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].kind.rank() != h[j].kind.rank() {
		return h[i].kind.rank() < h[j].kind.rank()
	}
	return h[i].seq < h[j].seq
}
func (h legacyEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *legacyEventHeap) Push(x any)   { *h = append(*h, x.(*legacyEvent)) }
func (h *legacyEventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// TestQueueMatchesLegacyHeapOrder drives the key heap and the oracle
// through randomized interleaved bursts of pushes, cancels and pops, and
// requires identical pop order and identical armed bits, including
// interleaved phases (a pure sort would not catch sift bugs that only
// appear when the heap shrinks and regrows). Times are drawn from a small
// range so the rank and seq tie-breaks are exercised, not just the time
// key. Cancels pick from every timer handle ever issued, so stale handles
// — fired, already canceled, or naming a recycled slot — are exercised
// too, and must find nothing armed.
func TestQueueMatchesLegacyHeapOrder(t *testing.T) {
	kinds := []eventKind{evInvoke, evDeliver, evTimer}
	type issued struct {
		id TimerID
		le *legacyEvent
	}
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 4 + rng.Intn(400)

		var q eventQueue
		legacy := &legacyEventHeap{}
		var handles []issued
		seq := int64(0)
		for step := 0; int(seq) < n || q.len() > 0; step++ {
			for burst := 1 + rng.Intn(8); burst > 0 && int(seq) < n; burst-- {
				le := &legacyEvent{time: simtime.Time(rng.Intn(n / 4)), kind: kinds[rng.Intn(len(kinds))], seq: seq}
				seq++
				slot, ev := q.push(le.time, le.seq, le.kind)
				if le.kind == evTimer {
					ev.armed, le.armed = true, true
					handles = append(handles, issued{q.handle(slot), le})
				}
				heap.Push(legacy, le)
			}
			for c := rng.Intn(3); c > 0 && len(handles) > 0; c-- {
				h := handles[rng.Intn(len(handles))]
				ev := q.timer(h.id)
				if want := h.le.armed && !h.le.popped; (ev != nil) != want {
					t.Fatalf("trial %d step %d: handle of seq %d resolves %v, want armed %v", trial, step, h.le.seq, ev != nil, want)
				}
				if ev != nil {
					ev.armed, h.le.armed = false, false
				}
			}
			drain := rng.Intn(q.len() + 1)
			if int(seq) >= n {
				drain = q.len() // flush at the end
			}
			for ; drain > 0; drain-- {
				got := q.pop()
				want := heap.Pop(legacy).(*legacyEvent)
				ev := q.body(got.slot)
				if got.time != want.time || got.rank != want.kind.rank() || ev.kind != want.kind || got.seq != want.seq || ev.armed != want.armed {
					t.Fatalf("trial %d step %d: pop mismatch: got (t=%v kind=%d seq=%d armed=%v), legacy (t=%v kind=%d seq=%d armed=%v)",
						trial, step, got.time, ev.kind, got.seq, ev.armed, want.time, want.kind, want.seq, want.armed)
				}
				want.popped = true
				q.release(got.slot)
			}
		}
		if legacy.Len() != 0 {
			t.Fatalf("trial %d: legacy heap not drained", trial)
		}
		if len(q.free) != len(q.slab) {
			t.Fatalf("trial %d: %d of %d slots free after draining", trial, len(q.free), len(q.slab))
		}
	}
}

// TestQueuePopReleasesPayload verifies the slots of popped and released
// events are cleared so payload and tag references do not outlive the
// event (the slab is retained across Engine.Reset, so a stale any would
// pin garbage).
func TestQueuePopReleasesPayload(t *testing.T) {
	var q eventQueue
	_, ev := q.push(1, 0, evDeliver)
	ev.payload = "pinned"
	_, ev = q.push(2, 1, evTimer)
	ev.tag = "pinned"
	q.release(q.pop().slot)
	q.release(q.pop().slot)
	for i, slot := range q.slab {
		if slot.payload != nil || slot.tag != nil {
			t.Fatalf("slot %d retains payload %v, tag %v after release", i, slot.payload, slot.tag)
		}
	}
}

// TestQueueResetRetainsCapacity pins the reuse contract bench numbers
// depend on: reset keeps the key array and the slab, frees every slot,
// and a refill of the same size grows neither.
func TestQueueResetRetainsCapacity(t *testing.T) {
	var q eventQueue
	fill := func() {
		for i := 0; i < 100; i++ {
			q.push(simtime.Time(i), int64(i), evTimer)
		}
	}
	fill()
	keys, slab := cap(q.keys), cap(q.slab)
	q.reset()
	if q.len() != 0 || len(q.free) != len(q.slab) {
		t.Fatalf("after reset: %d keys queued, %d of %d slots free", q.len(), len(q.free), len(q.slab))
	}
	fill()
	if cap(q.keys) != keys || cap(q.slab) != slab {
		t.Fatalf("reset dropped capacity: keys %d -> %d, slab %d -> %d", keys, cap(q.keys), slab, cap(q.slab))
	}
}

// TestTimerHandleGenerations pins the generation handles: a handle whose
// slot was recycled — by a later event or across Reset — cancels nothing,
// the zero TimerID names no timer, Crash disarms only the crashed
// process's timers, and Timers() stays exact throughout.
func TestTimerHandleGenerations(t *testing.T) {
	p := testParams(2)
	nodes := []Node{&probeNode{}, &probeNode{}}
	eng := newEngine(t, p, ZeroOffsets(2), UniformNetwork{D: 100}, nodes)
	want := func(stage string, n int) {
		t.Helper()
		if got := eng.Timers(); got != n {
			t.Fatalf("%s: Timers() = %d, want %d", stage, got, n)
		}
	}
	c0, c1 := &eng.ctxs[0], &eng.ctxs[1]

	fired := c0.SetTimer(5, "fired")
	want("one timer set", 1)
	eng.RunUntil(5)
	want("after it fired", 0)
	// The fired timer's slot is the next one handed out.
	live := c0.SetTimer(10, "live")
	if live.slot != fired.slot || live.gen == fired.gen {
		t.Fatalf("handles %+v then %+v: want the slot recycled under a new generation", fired, live)
	}
	c0.CancelTimer(fired)
	want("stale cancel", 1)
	c0.CancelTimer(TimerID{})
	want("zero-handle cancel", 1)
	c0.CancelTimer(live)
	c0.CancelTimer(live)
	want("cancel, twice", 0)

	var own []TimerID
	for i := 0; i < 3; i++ {
		own = append(own, c0.SetTimer(simtime.Duration(20+i), i))
		c1.SetTimer(simtime.Duration(20+i), i)
	}
	c1.CancelTimer(c1.SetTimer(30, "canceled"))
	want("three timers each", 6)
	eng.Crash(1)
	want("after p1 crashed", 3)
	for _, id := range own {
		if ev := eng.queue.timer(id); ev == nil || ev.proc != 0 {
			t.Fatalf("p0's timer %+v disarmed by p1's crash", id)
		}
	}
	var fires []any
	nodes[0].(*probeNode).onTimer = func(_ Context, tag any) { fires = append(fires, tag) }
	nodes[1].(*probeNode).onTimer = func(Context, any) { t.Fatal("crashed p1's timer fired") }
	eng.Run()
	want("drained", 0)
	if len(fires) != 3 {
		t.Fatalf("p0's timers fired %v, want all three", fires)
	}

	// Reset keeps the slab and its generations: a handle from the previous
	// run names a slot the next run reuses, and must not cancel there.
	stale := own[0]
	if err := eng.Reset(p, ZeroOffsets(2), UniformNetwork{D: 100}, nodes); err != nil {
		t.Fatal(err)
	}
	var fresh []TimerID
	for i := 0; i < len(eng.queue.slab); i++ {
		fresh = append(fresh, c0.SetTimer(simtime.Duration(i), i))
	}
	want("refilled after Reset", len(fresh))
	c0.CancelTimer(stale)
	want("cancel with a handle from before Reset", len(fresh))
	for _, id := range fresh {
		c0.CancelTimer(id)
	}
	want("all canceled", 0)
}
