package main

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lintime/internal/obs"
)

// statSnapshot builds the snapshot shape a serve endpoint exports, with
// a dial for the AOP p99 so tests can flip the verdict.
func statSnapshot(t *testing.T, aopP99 int64) obs.Snapshot {
	t.Helper()
	r := obs.NewRegistry()
	r.Counter("serve_calls_total").Add(40)
	r.Counter("rtnet_messages_delivered_total").Add(80)
	r.Counter("rtnet_timer_fires_total").Add(20)
	r.Gauge("serve_inflight_ops").Set(3)
	r.Gauge("serve_drain_state").Set(0)
	r.Max("rtnet_inbox_depth_max").Observe(6)
	// Two shard clusters' lateness: the frame shows the worse of each quantile.
	for shard, late := range [][]int64{{90, 110, 240}, {70, 130, 180}} {
		h := r.Hist(obs.WithLabel("rtnet_wake_late_us", "shard", fmt.Sprint(shard)), 0)
		for _, us := range late {
			h.Add(us)
		}
	}
	for class, p99 := range map[string]int64{"AOP": aopP99, "MOP": 30, "OOP": 55} {
		h := r.Hist(`serve_latency_ticks{class="`+class+`"}`, 256)
		h.Add(p99 / 2)
		h.Add(p99)
		r.Gauge(`serve_latency_formula_ticks{class="` + class + `"}`).Set(60)
		r.Gauge(`serve_latency_slo_ticks{class="` + class + `"}`).Set(90)
	}
	return obs.TakeSnapshot(r)
}

func TestSloViolated(t *testing.T) {
	if sloViolated(statSnapshot(t, 41)) {
		t.Fatal("healthy snapshot flagged as violated")
	}
	if !sloViolated(statSnapshot(t, 91)) {
		t.Fatal("p99 above the SLO gauge not flagged")
	}
	if sloViolated(obs.Snapshot{}) {
		t.Fatal("empty snapshot (no classes) flagged")
	}
}

func TestRenderStatFrame(t *testing.T) {
	prev := statSnapshot(t, 41)
	cur := statSnapshot(t, 41)
	cur.Counters["serve_calls_total"] = prev.Counters["serve_calls_total"] + 10

	var sb strings.Builder
	renderStat(&sb, prev, cur, 2*time.Second)
	out := sb.String()
	for _, want := range []string{
		"serve   calls 50 (5.0/s)",
		"inflight 3",
		"state serving",
		"rtnet   delivered 80",
		"wake late p50 130us p99 240us",
		"inbox max 6",
		"overflows 0",
		"AOP", "MOP", "OOP",
		"verdict",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("frame missing %q:\n%s", want, out)
		}
	}
	// No harness/fuzz traffic → those lines stay out of the frame.
	if strings.Contains(out, "harness") || strings.Contains(out, "fuzz") {
		t.Fatalf("idle sections rendered:\n%s", out)
	}
	if strings.Contains(out, "VIOLATED") {
		t.Fatalf("healthy frame shows a violation:\n%s", out)
	}

	sb.Reset()
	bad := statSnapshot(t, 91)
	renderStat(&sb, prev, bad, time.Second)
	if !strings.Contains(sb.String(), "VIOLATED") {
		t.Fatalf("violating frame missing verdict:\n%s", sb.String())
	}

	// Zero elapsed (the first frame) renders "-" rates, not a division.
	sb.Reset()
	renderStat(&sb, obs.Snapshot{}, cur, 0)
	if !strings.Contains(sb.String(), "(-)") {
		t.Fatalf("first frame did not dash its rates:\n%s", sb.String())
	}
}

func TestRenderStatQuorumLine(t *testing.T) {
	snap := statSnapshot(t, 41)
	snap.Counters["quorum_phase_total"] = 24
	snap.Counters["crashes_injected"] = 1
	snap.Counters["rtnet_post_crash_drops_total"] = 3
	var sb strings.Builder
	renderStat(&sb, snap, snap, time.Second)
	if !strings.Contains(sb.String(), "quorum  phases 24 (0.0/s)  crashes 1  post-crash drops 3") {
		t.Fatalf("quorum line missing:\n%s", sb.String())
	}
}

func TestRenderStatOverflowNote(t *testing.T) {
	snap := statSnapshot(t, 41)
	snap.Counters["rtnet_inbox_overflows_total"] = 2
	snap.Gauges["rtnet_inbox_overflow_last_proc"] = 1
	var sb strings.Builder
	renderStat(&sb, snap, snap, time.Second)
	if !strings.Contains(sb.String(), "overflows 2 (last p1)") {
		t.Fatalf("overflow note missing:\n%s", sb.String())
	}
}

// statShardedSnapshot builds the merged snapshot a shard router's
// endpoint exports: per-shard labeled series plus router counters. The
// aopP99s dial lets tests push a single shard over its SLO.
func statShardedSnapshot(t *testing.T, aopP99s ...int64) obs.Snapshot {
	t.Helper()
	regs := []*obs.Registry{obs.NewRegistry()}
	regs[0].Gauge("router_shards").Set(int64(len(aopP99s)))
	for i, aop := range aopP99s {
		r := obs.NewRegistry()
		label := func(name string) string { return obs.WithLabel(name, "shard", fmt.Sprint(i)) }
		r.Counter(label("serve_calls_total")).Add(10)
		r.Gauge(label("serve_inflight_ops")).Set(1)
		r.Gauge(label("serve_drain_state")).Set(0)
		for class, p99 := range map[string]int64{"AOP": aop, "MOP": 30, "OOP": 55} {
			h := r.Hist(label(`serve_latency_ticks{class="`+class+`"}`), 256)
			h.Add(p99 / 2)
			h.Add(p99)
			r.Gauge(label(`serve_latency_formula_ticks{class="` + class + `"}`)).Set(60)
			r.Gauge(label(`serve_latency_slo_ticks{class="` + class + `"}`)).Set(90)
		}
		regs = append(regs, r)
	}
	return obs.TakeSnapshot(regs...)
}

func TestRenderStatSharded(t *testing.T) {
	snap := statShardedSnapshot(t, 41, 44)
	var sb strings.Builder
	renderStat(&sb, snap, snap, time.Second)
	out := sb.String()
	for _, want := range []string{
		"serve   calls 20", // summed across shards
		"shards 2",
		"shard", // per-shard table header
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("sharded frame missing %q:\n%s", want, out)
		}
	}
	// Both shards' class rows present.
	for _, shard := range []string{"0", "1"} {
		if !strings.Contains(out, "\n"+shard+"  ") {
			t.Fatalf("sharded frame missing shard %s rows:\n%s", shard, out)
		}
	}
	if strings.Contains(out, "VIOLATED") {
		t.Fatalf("healthy sharded frame shows a violation:\n%s", out)
	}

	// One hot shard over its SLO: the frame and the gate both flag it.
	if sloViolated(snap) {
		t.Fatal("healthy sharded snapshot flagged")
	}
	bad := statShardedSnapshot(t, 41, 95)
	if !sloViolated(bad) {
		t.Fatal("shard 1 over SLO not flagged")
	}
	sb.Reset()
	renderStat(&sb, bad, bad, time.Second)
	if !strings.Contains(sb.String(), "VIOLATED") {
		t.Fatalf("violating sharded frame missing verdict:\n%s", sb.String())
	}
}

func TestRenderStatWireLine(t *testing.T) {
	// No connections → the wire line stays out of the frame.
	var sb strings.Builder
	renderStat(&sb, obs.Snapshot{}, statSnapshot(t, 41), time.Second)
	if strings.Contains(sb.String(), "wire") {
		t.Fatalf("idle wire line rendered:\n%s", sb.String())
	}

	// Connection counts fold across the router and its shards.
	snap := statSnapshot(t, 41)
	snap.Counters["serve_connections_total"] = 2
	snap.Counters[`serve_connections_total{shard="0"}`] = 1
	snap.Counters[`serve_connections_total{shard="1"}`] = 4
	sb.Reset()
	renderStat(&sb, snap, snap, time.Second)
	if !strings.Contains(sb.String(), "wire    conns 7\n") {
		t.Fatalf("wire line missing or wrong:\n%s", sb.String())
	}
}

func TestFetchSnapshot(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("serve_calls_total").Add(7)
	srv := httptest.NewServer(obs.Handler(r))
	defer srv.Close()

	snap, err := fetchSnapshot(srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serve_calls_total"] != 7 {
		t.Fatalf("fetched counters: %+v", snap.Counters)
	}
	if _, err := fetchSnapshot(srv.Client(), srv.URL+"/nope"); err == nil {
		t.Fatal("non-200 endpoint did not error")
	}
}

func TestDrainStateName(t *testing.T) {
	for v, want := range map[int64]string{0: "serving", 1: "draining", 2: "drained", 9: "serving"} {
		if got := drainStateName(v); got != want {
			t.Fatalf("drainStateName(%d) = %q, want %q", v, got, want)
		}
	}
}
