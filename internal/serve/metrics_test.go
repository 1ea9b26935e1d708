package serve

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/obs"
)

// TestObsHandlerSeries drives a little traffic through a single-object
// deployment and scrapes its observability endpoint: every documented
// series must be present under its historical unlabeled name, the
// per-class p99 must respect the SLO gauge, and the drain-state gauge
// must walk 0 → 2.
func TestObsHandlerSeries(t *testing.T) {
	s, err := NewShardSet(testShardConfig(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	srv := httptest.NewServer(s.ObsHandler())
	defer srv.Close()

	snapOf := func() obs.Snapshot {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/metrics.json")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap obs.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}

	if got := snapOf().Gauges["serve_drain_state"]; got != 0 {
		t.Fatalf("drain state while serving: %d, want 0", got)
	}

	for _, call := range []struct {
		op  string
		arg any
	}{{adt.OpEnqueue, 1}, {adt.OpEnqueue, 2}, {adt.OpPeek, nil}, {adt.OpDequeue, nil}} {
		if _, err := s.Call(call.op, call.arg); err != nil {
			t.Fatalf("%s: %v", call.op, err)
		}
	}

	snap := snapOf()
	if got := snap.Counters["serve_calls_total"]; got != 4 {
		t.Fatalf("serve_calls_total = %d, want 4", got)
	}
	if got := snap.Counters["serve_call_errors_total"]; got != 0 {
		t.Fatalf("serve_call_errors_total = %d, want 0", got)
	}
	if got := snap.Gauges["serve_inflight_ops"]; got != 0 {
		t.Fatalf("serve_inflight_ops after sync calls: %d, want 0", got)
	}
	if got := snap.Counters["rtnet_messages_delivered_total"]; got < 4 {
		t.Fatalf("rtnet_messages_delivered_total = %d, want >= 4", got)
	}
	// Every op class saw traffic; each observed p99 must sit at or below
	// the SLO line (formula bound + jitter budget) on a healthy run.
	for class, want := range map[string]int64{"AOP": 1, "MOP": 2, "OOP": 1} {
		name := `serve_latency_ticks{class="` + class + `"}`
		h, ok := snap.Hists[name]
		if !ok || h.Count != want {
			t.Fatalf("%s: count=%d ok=%v, want %d", name, h.Count, ok, want)
		}
		slo, ok := snap.Gauges[`serve_latency_slo_ticks{class="`+class+`"}`]
		if !ok {
			t.Fatalf("missing SLO gauge for %s", class)
		}
		formula := snap.Gauges[`serve_latency_formula_ticks{class="`+class+`"}`]
		if slo < formula {
			t.Fatalf("%s SLO %d below formula bound %d", class, slo, formula)
		}
		if h.P99 > slo {
			t.Fatalf("%s p99 %d exceeds SLO %d", class, h.P99, slo)
		}
	}
	// Substrate gauges registered per process.
	for _, name := range []string{
		`rtnet_inbox_depth{proc="0"}`, `rtnet_inbox_depth{proc="2"}`,
		"rtnet_inbox_overflow_last_proc",
	} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Fatalf("missing gauge %s (have %v)", name, len(snap.Gauges))
		}
	}
	if got := snap.Gauges["rtnet_inbox_overflow_last_proc"]; got != -1 {
		t.Fatalf("overflow last proc on healthy run: %d, want -1", got)
	}

	// The Prometheus rendering of the same registry parses as text and
	// carries the labelled family.
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `serve_latency_ticks{class="MOP",quantile="0.99"}`) {
		t.Fatalf("/metrics missing labelled summary series:\n%.600s", body)
	}

	if st := s.Stats(); st.Overflow != nil {
		t.Fatalf("Stats().Overflow on healthy run: %+v", st.Overflow)
	}
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := snapOf().Gauges["serve_drain_state"]; got != 2 {
		t.Fatalf("drain state after drain: %d, want 2", got)
	}
}

// TestObserveUnknownClassFoldsIntoMixed pins the fallback for classes
// outside the instrumented set.
func TestObserveUnknownClassFoldsIntoMixed(t *testing.T) {
	s, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	s.obsm.observe(classify.Class(99), 5)
	if got := s.obsm.perClass[classify.Mixed].Count(); got != 1 {
		t.Fatalf("unknown class did not fold into Mixed: count=%d", got)
	}
}

// TestServersDoNotShareRegistries guards the per-server registry
// isolation that concurrent tests rely on.
func TestServersDoNotShareRegistries(t *testing.T) {
	a, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Registry() == b.Registry() {
		t.Fatal("two servers share one registry")
	}
	a.obsm.calls.Inc()
	if got := obs.TakeSnapshot(b.Registry()).Counters["serve_calls_total"]; got != 0 {
		t.Fatalf("counter leaked across servers: %d", got)
	}
}
