package serve

import (
	"strings"
	"testing"
	"time"

	"lintime/internal/adt"
	"lintime/internal/harness"
	"lintime/internal/obs"
)

// TestServerTracingEndToEnd drives a traced client over TCP against a
// single-object deployment with the causal collector installed and
// checks the whole contract on the real-time substrate: the server-side
// tree carries the client-side span as its causal parent, the
// attribution identity holds exactly (it is structural, so wall-clock
// jitter lands in skew_adjust rather than breaking the sum), and the
// per-term histograms stream onto the shard's registry.
func TestServerTracingEndToEnd(t *testing.T) {
	ss, err := NewShardSet(testShardConfig(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	coll := obs.NewCollector(64)
	ss.SetTracers(func(int) *obs.Collector { return coll })
	ss.Start()
	t.Cleanup(func() { ss.Drain(30 * time.Second) })
	s := ss.Shard(0)

	c, err := Dial(startTCP(t, ss))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTraced(true)
	if _, err := c.Call(adt.OpEnqueue, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(adt.OpPeek, nil); err != nil {
		t.Fatal(err)
	}

	trees := s.TraceCollector().Trees()
	if len(trees) == 0 {
		t.Fatal("no causal trees retained")
	}
	dt, err := adt.Lookup("queue")
	if err != nil {
		t.Fatal(err)
	}
	classes := harness.ClassesFor(dt)
	p := testConfig(3).Params
	ap := obs.AttrParams{D: int64(p.D), U: int64(p.U), Epsilon: int64(p.Epsilon), X: int64(p.X)}
	parented := 0
	for _, tr := range trees {
		if tr.Parent != -1 {
			parented++
		}
		a, ok := coll.Attribute(tr.Span, classes[tr.Op].String(), tr.Start, ap)
		if !ok {
			t.Fatalf("span %d: Attribute refused", tr.Span)
		}
		if got, lat := a.Sum(), tr.End-tr.Start; got != lat {
			t.Errorf("span %d (%s): terms sum to %d, latency %d: %v",
				tr.Span, tr.Op, got, lat, a)
		}
	}
	if parented == 0 {
		t.Error("no tree carries the client-side span as causal parent")
	}

	snap := obs.TakeSnapshot(s.Registry())
	termed := 0
	for name, h := range snap.Hists {
		if strings.HasPrefix(name, "trace_term_ticks{") && h.Count > 0 {
			termed++
		}
	}
	if termed == 0 {
		t.Errorf("no populated trace_term_ticks series on the registry: %v",
			len(snap.Hists))
	}
}

// With tracing off the registry must not even carry the term series —
// the gate is structural absence, not zero-valued presence.
func TestServerTracingOffNoTermSeries(t *testing.T) {
	s := startServer(t, 3)
	if _, err := s.Call(adt.OpEnqueue, 1); err != nil {
		t.Fatal(err)
	}
	if s.TraceCollector() != nil {
		t.Error("TraceCollector non-nil with tracing off")
	}
	for name := range obs.TakeSnapshot(s.Registry()).Hists {
		if strings.HasPrefix(name, "trace_term_ticks") {
			t.Errorf("tracing-off registry carries %s", name)
		}
	}
}
