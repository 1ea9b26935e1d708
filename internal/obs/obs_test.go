package obs_test

import (
	"sync"
	"testing"

	"lintime/internal/obs"
)

// TestCounterConcurrent hammers one counter from many goroutines and
// asserts nothing is lost: the striped shards must still sum exactly.
// Run under -race this also proves the fast path is race-free.
func TestCounterConcurrent(t *testing.T) {
	const goroutines, perG = 32, 10_000
	var c obs.Counter
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter lost updates: got %d, want %d", got, goroutines*perG)
	}
	c.Add(-5)
	if got := c.Value(); got != goroutines*perG-5 {
		t.Fatalf("Add(-5): got %d", got)
	}
}

// TestGaugeAndMaxConcurrent exercises Gauge set/add and Max observe
// under contention; Max must converge to the true maximum.
func TestGaugeAndMaxConcurrent(t *testing.T) {
	const goroutines = 16
	var g obs.Gauge
	var m obs.Max
	var wg sync.WaitGroup
	for i := 1; i <= goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Add(1)
			for v := 0; v <= i*100; v++ {
				m.Observe(int64(v))
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != goroutines {
		t.Fatalf("gauge: got %d, want %d", got, goroutines)
	}
	if got := m.Value(); got != goroutines*100 {
		t.Fatalf("max: got %d, want %d", got, goroutines*100)
	}
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("gauge Set(-7): got %d", got)
	}
	// Observing a smaller value never lowers the watermark.
	m.Observe(1)
	if got := m.Value(); got != goroutines*100 {
		t.Fatalf("max lowered by smaller observe: got %d", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := obs.NewRegistry()
	c1 := r.Counter("x_total")
	c2 := r.Counter("x_total")
	if c1 != c2 {
		t.Fatal("Counter did not return the same instrument for one name")
	}
	h1 := r.Hist("lat", 64)
	h2 := r.Hist("lat", 999) // limit of an existing hist is ignored
	if h1 != h2 {
		t.Fatal("Hist did not return the same instrument for one name")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter name did not panic")
		}
	}()
	r.Gauge("x_total")
}

func TestSnapshotMerge(t *testing.T) {
	a := obs.NewRegistry()
	b := obs.NewRegistry()
	a.Counter("runs_total").Add(3)
	a.Gauge("depth").Set(7)
	a.Max("peak").Observe(11)
	a.GaugeFunc("live", func() int64 { return 42 })
	b.Counter("other_total").Inc()
	h := b.Hist("lat", 16)
	h.Add(4)
	h.Add(8)

	snap := obs.TakeSnapshot(a, b)
	if snap.Counters["runs_total"] != 3 || snap.Counters["other_total"] != 1 {
		t.Fatalf("merged counters wrong: %+v", snap.Counters)
	}
	if snap.Gauges["depth"] != 7 || snap.Gauges["peak"] != 11 || snap.Gauges["live"] != 42 {
		t.Fatalf("merged gauges wrong (maxes and funcs fold in): %+v", snap.Gauges)
	}
	if hs := snap.Hists["lat"]; hs.Count != 2 || hs.Min != 4 || hs.P99 != 8 || hs.Max != 8 {
		t.Fatalf("hist summary wrong: %+v", snap.Hists["lat"])
	}
}

func TestSplitNameAndLabel(t *testing.T) {
	base, labels := obs.SplitName(`serve_latency_ticks{class="AOP"}`)
	if base != "serve_latency_ticks" || labels != `class="AOP"` {
		t.Fatalf("SplitName: got %q %q", base, labels)
	}
	if got := obs.Label(`serve_latency_ticks{class="AOP"}`, "class"); got != "AOP" {
		t.Fatalf("Label: got %q", got)
	}
	base, labels = obs.SplitName("plain_name")
	if base != "plain_name" || labels != "" {
		t.Fatalf("SplitName plain: got %q %q", base, labels)
	}
	if got := obs.Label("plain_name", "class"); got != "" {
		t.Fatalf("Label on unlabelled name: got %q", got)
	}
}
