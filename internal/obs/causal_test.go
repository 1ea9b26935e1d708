package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// finish runs one complete root span through c: invoke at start,
// respond at end.
func finish(c *Collector, proc int32, span int64, op string, start, end int64) {
	c.OpStart(proc, span, op, start)
	c.OpEnd(proc, span, end)
}

func TestTermString(t *testing.T) {
	want := map[Term]string{
		TermXWait:          "x_wait",
		TermNetDelay:       "net_delay",
		TermBatchResidency: "batch_residency",
		TermQueue:          "queue",
		TermExec:           "exec",
		TermSkewAdjust:     "skew_adjust",
	}
	for term, name := range want {
		if got := term.String(); got != name {
			t.Errorf("Term(%d).String() = %q, want %q", term, got, name)
		}
	}
	if got := Term(42).String(); got != "Term(42)" {
		t.Errorf("unknown term = %q", got)
	}
}

func TestAttributionSum(t *testing.T) {
	a := Attribution{1, 2, 3, 4, 5, -6}
	if got := a.Sum(); got != 9 {
		t.Errorf("Sum() = %d, want 9", got)
	}
}

func TestCollectorLifecycle(t *testing.T) {
	c := NewCollector(8)
	if got := c.CurrentSpan(0); got != -1 {
		t.Fatalf("CurrentSpan before any op = %d, want -1", got)
	}
	c.OpStartCtx(0, 1, 77, "enqueue", 10)
	if got := c.CurrentSpan(0); got != 1 {
		t.Fatalf("CurrentSpan mid-op = %d, want 1", got)
	}
	c.Event(1, StageBroadcast, 0, 11)
	c.Deliver(1, 2, 15, 11, 3) // peer-side delivery with batch residency
	c.Child(0, -100, 1, "query", 12)
	c.ChildEnd(0, -100, 14)
	c.ChildEnd(0, 1, 15) // root span: only OpEnd may complete it
	c.OpEnd(0, 1, 20)
	if got := c.CurrentSpan(0); got != -1 {
		t.Fatalf("CurrentSpan after respond = %d, want -1", got)
	}
	if got := c.Completed(); got != 1 {
		t.Fatalf("Completed() = %d, want 1", got)
	}
	// An unrelated span interleaves: still open, it is no tree yet, and
	// its waypoints must not leak into span 1's.
	c.OpStart(1, 8, "read", 22)
	c.Event(8, StageTimer, 1, 23)
	trees := c.Trees()
	if len(trees) != 1 {
		t.Fatalf("Trees() returned %d trees, want 1", len(trees))
	}
	tr := trees[0]
	if tr.Span != 1 || tr.Parent != 77 || tr.Op != "enqueue" || tr.Proc != 0 {
		t.Errorf("root identity = %+v", tr)
	}
	if tr.Start != 10 || tr.End != 20 {
		t.Errorf("root window = [%d, %d], want [10, 20]", tr.Start, tr.End)
	}
	// invoke, broadcast, deliver, respond.
	if len(tr.Events) != 4 {
		t.Fatalf("root has %d events, want 4: %+v", len(tr.Events), tr.Events)
	}
	if tr.Events[0].Stage != StageInvoke || tr.Events[len(tr.Events)-1].Stage != StageRespond {
		t.Errorf("events not invoke-first respond-last: %+v", tr.Events)
	}
	del := tr.Events[2]
	if del.Stage != StageDeliver || del.Sent != 11 || del.Residency != 3 {
		t.Errorf("delivery annotations lost: %+v", del)
	}
	if len(tr.Children) != 1 {
		t.Fatalf("root has %d children, want 1", len(tr.Children))
	}
	ch := tr.Children[0]
	if ch.Span != -100 || ch.Parent != 1 || ch.Op != "query" || ch.Start != 12 || ch.End != 14 {
		t.Errorf("child = %+v", ch)
	}
}

func TestCollectorFlatOpStartHasNoParent(t *testing.T) {
	c := NewCollector(2)
	finish(c, 0, 5, "peek", 0, 3)
	if trees := c.Trees(); trees[0].Parent != -1 {
		t.Errorf("flat OpStart parent = %d, want -1", trees[0].Parent)
	}
}

func TestCollectorDefaultCapacity(t *testing.T) {
	c := NewCollector(0)
	if len(c.done) != 256 {
		t.Errorf("default capacity = %d, want 256", len(c.done))
	}
}

// TestCollectorRingWrap pins the flight-recorder semantics: the ring
// keeps the last capacity completed trees oldest-first, overwritten
// trees count as dropped, and their spans leave the index (late events
// for them are discarded, attribution refuses them).
func TestCollectorRingWrap(t *testing.T) {
	c := NewCollector(2)
	finish(c, 0, 1, "a", 0, 1)
	finish(c, 0, 2, "b", 2, 3)
	finish(c, 0, 3, "c", 4, 5)
	trees := c.Trees()
	if len(trees) != 2 || trees[0].Span != 2 || trees[1].Span != 3 {
		t.Fatalf("retained spans = %v, want [2 3] oldest first", []any{trees})
	}
	if got := c.Dropped(); got != 1 {
		t.Errorf("Dropped() = %d, want 1", got)
	}
	if got := c.Completed(); got != 3 {
		t.Errorf("Completed() = %d, want 3", got)
	}
	// Span 1 was evicted from the index: late events vanish, attribution
	// refuses it.
	c.Event(1, StageDeliver, 1, 9)
	if _, ok := c.Attribute(1, "MOP", 0, AttrParams{}); ok {
		t.Error("Attribute succeeded on an evicted span")
	}
	for _, tr := range c.Trees() {
		for _, ev := range tr.Events {
			if ev.Span == 1 {
				t.Errorf("late event for evicted span landed on %+v", tr)
			}
		}
	}
}

// Ring overwrite must also evict the overwritten tree's children from
// the index, or a long run leaks one entry per phase span.
func TestCollectorRingWrapEvictsChildren(t *testing.T) {
	c := NewCollector(1)
	c.OpStart(0, 1, "read", 0)
	c.Child(0, -1000, 1, "query", 1)
	c.ChildEnd(0, -1000, 2)
	c.OpEnd(0, 1, 3)
	finish(c, 0, 2, "read", 4, 5) // overwrites span 1's slot
	c.mu.Lock()
	_, rootIndexed := c.index[1]
	_, childIndexed := c.index[-1000]
	c.mu.Unlock()
	if rootIndexed || childIndexed {
		t.Errorf("overwritten tree still indexed: root=%v child=%v", rootIndexed, childIndexed)
	}
}

// TestCollectorLiveBound pins open-set eviction: having more roots open
// than the ring capacity evicts the oldest open root (and its children)
// so a crashed owner cannot pin memory forever — and only open roots
// count, so a slow operation survives any number of fast ones that
// start and complete beside it.
func TestCollectorLiveBound(t *testing.T) {
	start := func(proc int32, span int64) func(*Collector) {
		return func(c *Collector) { c.OpStart(proc, span, "op", 2*span) }
	}
	end := func(proc int32, span int64) func(*Collector) {
		return func(c *Collector) { c.OpEnd(proc, span, 2*span+100) }
	}
	for _, tc := range []struct {
		name               string
		steps              []func(*Collector)
		completed, dropped int64
		retained           []int64
	}{
		{"three open roots evict the oldest and its child",
			[]func(*Collector){
				start(0, 1),
				func(c *Collector) { c.Child(0, -10, 1, "query", 3) },
				start(1, 2),
				start(2, 3), // evicts span 1 and its child
				func(c *Collector) { c.Event(1, StageDeliver, 0, 5) },
				func(c *Collector) { c.Event(-10, StageTimer, 0, 5) },
				end(0, 1), // completing an evicted span: no-op
				end(1, 2), end(2, 3),
			}, 2, 1, []int64{2, 3}},
		// The single drop is the capacity-2 ring overwriting completed
		// span 2, not open span 1.
		{"a slow root outlives fast ones completing beside it",
			[]func(*Collector){
				start(0, 1),
				start(1, 2), end(1, 2),
				start(1, 3), end(1, 3),
				end(0, 1),
			}, 3, 1, []int64{3, 1}},
	} {
		c := NewCollector(2)
		for _, step := range tc.steps {
			step(c)
		}
		if got := c.Completed(); got != tc.completed {
			t.Errorf("%s: Completed() = %d, want %d", tc.name, got, tc.completed)
		}
		if got := c.Dropped(); got != tc.dropped {
			t.Errorf("%s: Dropped() = %d, want %d", tc.name, got, tc.dropped)
		}
		var retained []int64
		for _, tr := range c.Trees() {
			retained = append(retained, tr.Span)
			if _, ok := c.Attribute(tr.Span, "MOP", tr.Start, AttrParams{}); !ok {
				t.Errorf("%s: retained span %d not attributable", tc.name, tr.Span)
			}
		}
		if !reflect.DeepEqual(retained, tc.retained) {
			t.Errorf("%s: retained spans = %v, want %v", tc.name, retained, tc.retained)
		}
	}
}

// Late peer events and straggler phase completions must land on the
// retained completed tree, not vanish: a mutator's broadcast outlives
// its X-wait, and a quorum phase's last ack can arrive after the
// coordinator responded.
func TestCollectorLateEventsAfterComplete(t *testing.T) {
	c := NewCollector(4)
	c.OpStart(0, 1, "write", 0)
	c.Child(0, -1, 1, "write_back", 2)
	c.OpEnd(0, 1, 5)
	// All of these arrive after the root completed.
	c.Deliver(1, 2, 7, 0, 0)     // broadcast landing on a peer
	c.Child(0, -2, 1, "late", 8) // a phase opened on a done root
	c.ChildEnd(0, -1, 9)         // straggler phase completion
	c.ChildEnd(0, -2, 10)
	c.ChildEnd(0, 99, 11) // unknown child: dropped
	c.ChildEnd(0, 1, 12)  // root span: ChildEnd must not touch it
	tr := c.Trees()[0]
	if tr.End != 5 {
		t.Fatalf("root End = %d after late events, want 5", tr.End)
	}
	if n := len(tr.Events); n != 3 { // invoke, respond, late deliver
		t.Fatalf("root has %d events, want 3: %+v", n, tr.Events)
	}
	if len(tr.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(tr.Children))
	}
	for _, ch := range tr.Children {
		if ch.End < 0 {
			t.Errorf("child %d not completed: %+v", ch.Span, ch)
		}
	}
}

func TestCollectorUnknownSpansDropped(t *testing.T) {
	c := NewCollector(2)
	c.Event(42, StageBroadcast, 0, 1)
	c.Deliver(42, 0, 2, 1, 0)
	c.Child(0, -5, 42, "query", 3)
	c.OpEnd(0, 42, 4)
	if got := c.Completed(); got != 0 {
		t.Errorf("Completed() = %d, want 0", got)
	}
	if len(c.Trees()) != 0 {
		t.Error("unknown spans produced trees")
	}
}

// attributionCase runs one synthetic owner timeline through Attribute.
func attributionCase(t *testing.T, class string, p AttrParams, want Attribution) {
	t.Helper()
	c := NewCollector(4)
	c.OpStartCtx(0, 1, -1, "op", 2)  // queue: submit 0 → handled 2
	c.Event(1, StageBroadcast, 0, 3) // exec 1
	c.Deliver(1, 0, 10, 3, 2)        // dt 7: residency 2, flight 5
	c.Deliver(1, 1, 12, 3, 0)        // peer-side: not on owner timeline
	c.Event(1, StageTimer, 0, 18)    // wait 8
	c.OpEnd(0, 1, 20)                // exec 2
	c.Deliver(1, 0, 25, 20, 0)       // own echo after respond: ignored
	a, ok := c.Attribute(1, class, 0, p)
	if !ok {
		t.Fatal("Attribute refused a retained complete root")
	}
	if a != want {
		t.Errorf("class %q attribution = %v, want %v", class, a, want)
	}
	if got := a.Sum(); got != 20 {
		t.Errorf("class %q terms sum to %d, want measured latency 20", class, got)
	}
}

func TestAttributeSplitsWaitByClass(t *testing.T) {
	// Timeline totals: queue 2, exec 3, residency 2, flight 5, wait 8.
	attributionCase(t, "MOP", AttrParams{D: 20, X: 5},
		Attribution{TermXWait: 5, TermNetDelay: 5, TermBatchResidency: 2,
			TermQueue: 2, TermExec: 3, TermSkewAdjust: 3})
	attributionCase(t, "AOP", AttrParams{D: 6, X: 2}, // deliberate d−X = 4
		Attribution{TermNetDelay: 9, TermBatchResidency: 2,
			TermQueue: 2, TermExec: 3, TermSkewAdjust: 4})
	// Unclassified: the whole wait is capped network stabilization.
	attributionCase(t, "OOP", AttrParams{D: 100, X: 5},
		Attribution{TermNetDelay: 13, TermBatchResidency: 2,
			TermQueue: 2, TermExec: 3})
	// AOP with X > d: the formula's d−X goes negative and clamps to 0.
	attributionCase(t, "AOP", AttrParams{D: 2, X: 5},
		Attribution{TermNetDelay: 5, TermBatchResidency: 2,
			TermQueue: 2, TermExec: 3, TermSkewAdjust: 8})
}

func TestAttributeNoTimerMeansNoDeliberateWait(t *testing.T) {
	// Quorum-style op: no stabilization timer ever fires, so nothing is
	// attributed to the deliberate-wait terms even for a mutator class.
	c := NewCollector(2)
	c.OpStart(0, 1, "write", 0)
	c.Deliver(1, 0, 5, 0, 0)
	c.OpEnd(0, 1, 8)
	a, ok := c.Attribute(1, "MOP", 0, AttrParams{D: 4, X: 3})
	if !ok {
		t.Fatal("Attribute refused")
	}
	want := Attribution{TermNetDelay: 5, TermExec: 3}
	if a != want {
		t.Errorf("attribution = %v, want %v", a, want)
	}
}

func TestAttributeResidencyClamps(t *testing.T) {
	c := NewCollector(2)
	c.OpStart(0, 1, "op", 0)
	c.Deliver(1, 0, 3, 0, 10) // residency exceeds the interval: clamp to dt
	c.Deliver(1, 0, 5, 3, -4) // negative residency: clamp to 0
	c.OpEnd(0, 1, 5)
	a, ok := c.Attribute(1, "OOP", 0, AttrParams{D: 0})
	if !ok {
		t.Fatal("Attribute refused")
	}
	want := Attribution{TermBatchResidency: 3, TermNetDelay: 2}
	if a != want {
		t.Errorf("attribution = %v, want %v", a, want)
	}
}

func TestAttributeRefusals(t *testing.T) {
	c := NewCollector(4)
	if _, ok := c.Attribute(1, "MOP", 0, AttrParams{}); ok {
		t.Error("unknown span attributed")
	}
	c.OpStart(0, 1, "op", 0)
	if _, ok := c.Attribute(1, "MOP", 0, AttrParams{}); ok {
		t.Error("open span attributed")
	}
	c.Child(0, -7, 1, "query", 1)
	c.OpEnd(0, 1, 2)
	c.ChildEnd(0, -7, 3)
	if _, ok := c.Attribute(-7, "MOP", 0, AttrParams{}); ok {
		t.Error("child span attributed as a root")
	}
	if _, ok := c.Attribute(1, "MOP", 0, AttrParams{}); !ok {
		t.Error("completed root refused")
	}
}

// Trees must return deep clones in canonical order: sharing memory with
// the collector would race live appends, and nondeterministic event
// order would break golden exports.
func TestTreesClonesCanonical(t *testing.T) {
	c := NewCollector(2)
	c.OpStart(1, 1, "op", 0)
	// Same tick on two processes: canonical order sorts by proc.
	c.Deliver(1, 2, 4, 0, 0)
	c.Deliver(1, 0, 4, 0, 0)
	// Children starting at the same tick sort by descending span.
	c.Child(1, -1, 1, "query", 5)
	c.Child(1, -2, 1, "write_back", 5)
	c.OpEnd(1, 1, 9)
	tr := c.Trees()[0]
	if tr.Events[1].Proc != 0 || tr.Events[2].Proc != 2 {
		t.Errorf("same-tick events not proc-ordered: %+v", tr.Events)
	}
	if tr.Children[0].Span != -1 || tr.Children[1].Span != -2 {
		t.Errorf("same-start children not span-ordered: %+v", tr.Children)
	}
	// Mutating the clone must not reach the collector.
	tr.Events[0].Time = 999
	if c.Trees()[0].Events[0].Time == 999 {
		t.Error("Trees returned shared memory")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	c := NewCollector(4)
	c.OpStartCtx(0, 1, 42, "enqueue", 10)
	c.Event(1, StageBroadcast, 0, 11)
	c.Deliver(1, 1, 15, 11, 3)
	c.Deliver(1, 2, 14, 0, 0) // sent 0: no delivery args
	c.Child(0, -1, 1, "query", 12)
	c.ChildEnd(0, -1, 16)
	c.OpEnd(0, 1, 20)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, c.Trees()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Cat   string         `json:"cat"`
			Phase string         `json:"ph"`
			TS    int64          `json:"ts"`
			Dur   *int64         `json:"dur"`
			TID   int64          `json:"tid"`
			Scope string         `json:"s"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	var slices, instants, deliverArgs int
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "X":
			slices++
			if ev.Dur == nil {
				t.Errorf("slice %q missing dur", ev.Name)
			}
			if ev.Name == "enqueue" && (ev.TS != 10 || *ev.Dur != 10 || ev.Cat != "op") {
				t.Errorf("root slice wrong: %+v", ev)
			}
			if ev.Name == "query" && ev.Cat != "phase" {
				t.Errorf("child slice cat = %q, want phase", ev.Cat)
			}
		case "i":
			instants++
			if ev.Scope != "t" {
				t.Errorf("instant %q scope = %q, want t", ev.Name, ev.Scope)
			}
			if ev.Name == "invoke" || ev.Name == "respond" {
				t.Errorf("endpoint waypoint %q emitted as instant", ev.Name)
			}
			if _, ok := ev.Args["sent"]; ok {
				deliverArgs++
			}
		default:
			t.Errorf("unexpected phase %q", ev.Phase)
		}
	}
	if slices != 2 {
		t.Errorf("slices = %d, want 2 (root + child)", slices)
	}
	if instants != 3 {
		t.Errorf("instants = %d, want 3 (broadcast + 2 delivers)", instants)
	}
	if deliverArgs != 1 {
		t.Errorf("delivery-annotated instants = %d, want 1", deliverArgs)
	}
	// Deterministic: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, c.Trees()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("WriteChromeTrace output is not deterministic")
	}
}
