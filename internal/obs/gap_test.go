package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestCollectorWrapOrder pins the wrap-order contract Trees documents:
// after the ring wraps, the returned slice is completion order — oldest
// retained first — never the raw backing-array order, which would splice
// the newest trees in front of the oldest across the wrap boundary.
func TestCollectorWrapOrder(t *testing.T) {
	c := NewCollector(4)
	for i := int64(0); i < 6; i++ {
		finish(c, 0, i, "op", 2*i, 2*i+1)
	}
	trees := c.Trees()
	if len(trees) != 4 {
		t.Fatalf("retained %d trees, want 4", len(trees))
	}
	for i, tr := range trees {
		if want := int64(i + 2); tr.Span != want {
			t.Fatalf("Trees()[%d].Span = %d, want %d (completion order)", i, tr.Span, want)
		}
	}
	if got := c.Dropped(); got != 2 {
		t.Errorf("Dropped() = %d, want 2", got)
	}
}

// A span whose root was evicted while open must never surface as a
// whole operation: its remaining waypoints and its respond vanish, and
// neither Trees nor Attribute reports it. A span whose respond has not
// landed yet is withheld the same way — only an intact invoke…respond
// lifecycle is complete.
func TestCollectorPartiallyEvictedSpan(t *testing.T) {
	c := NewCollector(1)
	c.OpStart(0, 1, "enqueue", 0)
	c.Event(1, StageBroadcast, 0, 1)
	c.OpStart(1, 2, "peek", 2) // a second open root: evicts span 1's head
	c.Event(1, StageDeliver, 0, 3)
	c.OpEnd(0, 1, 4)
	if _, ok := c.Attribute(1, "MOP", 0, AttrParams{}); ok {
		t.Error("head-evicted span attributed as complete")
	}
	if _, ok := c.Attribute(2, "AOP", 2, AttrParams{}); ok {
		t.Error("open span (no respond yet) attributed as complete")
	}
	if trees := c.Trees(); len(trees) != 0 {
		t.Errorf("Trees() = %+v, want none: no lifecycle is complete", trees)
	}
	c.OpEnd(1, 2, 5)
	trees := c.Trees()
	if len(trees) != 1 || trees[0].Span != 2 || len(trees[0].Events) != 2 {
		t.Fatalf("Trees() = %+v, want span 2 alone with invoke and respond", trees)
	}
	if _, ok := c.Attribute(99, "AOP", 0, AttrParams{}); ok {
		t.Error("unknown span attributed")
	}
}

func TestStageMarshalJSON(t *testing.T) {
	b, err := json.Marshal(SpanEvent{Span: 1, Stage: StageDeliver, Proc: 2, Time: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"deliver"`) {
		t.Errorf("stage not marshalled by name: %s", b)
	}
}

func TestStageStringUnknown(t *testing.T) {
	if got := Stage(99).String(); got != "Stage(99)" {
		t.Errorf("unknown stage = %q", got)
	}
}

func TestHistLimitAndQuantileEdges(t *testing.T) {
	h := NewHist(-1)
	if got := h.Limit(); got != DefaultHistLimit {
		t.Errorf("Limit() = %d, want DefaultHistLimit %d", got, DefaultHistLimit)
	}
	h = NewHist(4)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %d, want 0", got)
	}
	h.Add(1)
	h.Add(3)
	h.Add(100) // overflow bucket
	if got := h.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %d, want min 1", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("Quantile(1) = %d, want max 100", got)
	}
	// Rank 3 of 3 lands in the overflow bucket: report the observed max,
	// not the bucket boundary.
	if got := h.Quantile(0.99); got != 100 {
		t.Errorf("overflow Quantile(0.99) = %d, want 100", got)
	}
	if got := h.Quantile(0.34); got != 3 {
		t.Errorf("Quantile(0.34) = %d, want 3", got)
	}
}

func TestWithLabel(t *testing.T) {
	if got := WithLabel("calls_total", "shard", "2"); got != `calls_total{shard="2"}` {
		t.Errorf("plain name: %q", got)
	}
	got := WithLabel(`lat{class="AOP"}`, "shard", "2")
	if got != `lat{shard="2",class="AOP"}` {
		t.Errorf("labelled name: %q", got)
	}
}

func TestRegistryGaugeMaxExisting(t *testing.T) {
	r := NewRegistry()
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("Gauge did not return the existing instrument")
	}
	if r.Max("m") != r.Max("m") {
		t.Error("Max did not return the existing instrument")
	}
}

func TestTakeSnapshotSkipsNil(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	snap := TakeSnapshot(nil, r, nil)
	if snap.Counters["c"] != 7 {
		t.Errorf("merged counters = %v", snap.Counters)
	}
}

func TestLabelMalformedPart(t *testing.T) {
	if got := Label(`lat{noeq,class="AOP"}`, "class"); got != "AOP" {
		t.Errorf("Label skipped past malformed part wrong: %q", got)
	}
}

// limitWriter fails every write once n bytes have been accepted.
type limitWriter struct {
	n   int
	buf bytes.Buffer
}

func (lw *limitWriter) Write(p []byte) (int, error) {
	if lw.buf.Len()+len(p) > lw.n {
		return 0, os.ErrClosed
	}
	return lw.buf.Write(p)
}

// Sweep a byte budget from 0 to the full render length so every early
// error return in WritePrometheus fires at least once.
func TestWritePrometheusErrorPaths(t *testing.T) {
	snap := Snapshot{
		Counters: map[string]int64{"c_total": 1, `c_total{shard="0"}`: 2},
		Gauges:   map[string]int64{"depth": 3},
		Hists: map[string]HistSummary{
			"lat":              {Count: 2, Sum: 10, Min: 1, Max: 9, P50: 4, P95: 9, P99: 9},
			`lat{class="AOP"}`: {Count: 1, Sum: 5, Min: 5, Max: 5, P50: 5, P95: 5, P99: 5},
			`other{shard="1"}`: {Count: 1, Sum: 2, Min: 2, Max: 2, P50: 2, P95: 2, P99: 2},
		},
	}
	var full bytes.Buffer
	if err := WritePrometheus(&full, snap); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < full.Len(); n++ {
		if err := WritePrometheus(&limitWriter{n: n}, snap); err == nil {
			t.Fatalf("budget %d of %d: no error", n, full.Len())
		}
	}
	if err := WritePrometheus(&limitWriter{n: full.Len()}, snap); err != nil {
		t.Fatalf("exact budget failed: %v", err)
	}
}

// Writing to /dev/full forces the write error path: the error is sticky
// and Close reports it (idempotently).
func TestSnapshotWriterWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	r := NewRegistry()
	r.Counter("c").Add(1)
	sw, err := NewSnapshotWriter("/dev/full", 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err == nil {
		t.Fatal("Close reported no error writing to /dev/full")
	}
	if err := sw.Close(); err == nil {
		t.Fatal("second Close lost the sticky error")
	}
}

func TestSnapshotWriterDoubleClose(t *testing.T) {
	sw, err := NewSnapshotWriter(t.TempDir()+"/snap.jsonl", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// Same-time same-proc events sort by stage, then span — the final
// tiebreaks that keep golden trace exports byte-stable.
func TestSortEventsTiebreaks(t *testing.T) {
	evs := []SpanEvent{
		{Span: 2, Stage: StageDeliver, Proc: 0, Time: 5},
		{Span: 1, Stage: StageDeliver, Proc: 0, Time: 5},
		{Span: 3, Stage: StageBroadcast, Proc: 0, Time: 5},
	}
	sortEvents(evs)
	if evs[0].Stage != StageBroadcast || evs[1].Span != 1 || evs[2].Span != 2 {
		t.Errorf("tiebreak order wrong: %+v", evs)
	}
}

// White-box: a writer racing the scan increments buckets after count is
// visible, so the cumulative walk can come up short of the rank; the
// observed maximum is the only safe answer.
func TestHistQuantileTrailingRank(t *testing.T) {
	h := NewHist(4)
	h.count.Store(5) // count visible, bucket increments not yet landed
	if got := h.Quantile(0.5); got != h.Max() {
		t.Errorf("trailing-rank Quantile = %d, want Max %d", got, h.Max())
	}
}

func TestLabelKeyMismatch(t *testing.T) {
	if got := Label(`lat{class="AOP",shard="2"}`, "shard"); got != "2" {
		t.Errorf("Label skipped past non-matching key wrong: %q", got)
	}
}

func TestStageDroppedString(t *testing.T) {
	if got := StageDropped.String(); got != "dropped" {
		t.Errorf("StageDropped.String() = %q", got)
	}
}
