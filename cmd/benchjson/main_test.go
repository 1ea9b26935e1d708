package main

import (
	"strings"
	"testing"

	"lintime/internal/serve"
)

func TestParseBenchLine(t *testing.T) {
	name, metrics, ok := parse("BenchmarkEngineEvents-8   \t   532\t   2223105 ns/op\t 3967424 B/op\t   16067 allocs/op")
	if !ok || name != "EngineEvents" {
		t.Fatalf("parse failed: ok=%v name=%q", ok, name)
	}
	want := map[string]float64{"ns/op": 2223105, "B/op": 3967424, "allocs/op": 16067}
	for k, v := range want {
		if metrics[k] != v {
			t.Errorf("%s = %v, want %v", k, metrics[k], v)
		}
	}
}

func TestParseCustomMetric(t *testing.T) {
	name, metrics, ok := parse("BenchmarkFuzzCampaign-8   171   6740661 ns/op   18989 schedules/sec   3072432 B/op   34218 allocs/op")
	if !ok || name != "FuzzCampaign" {
		t.Fatalf("parse failed: ok=%v name=%q", ok, name)
	}
	if metrics["schedules/sec"] != 18989 {
		t.Errorf("schedules/sec = %v", metrics["schedules/sec"])
	}
}

func TestParseSubBenchmarkAndNoise(t *testing.T) {
	name, _, ok := parse("BenchmarkAllTables/parallel=4-8   464   3362674 ns/op   1499272 B/op   13851 allocs/op")
	if !ok || name != "AllTables/parallel=4" {
		t.Fatalf("sub-benchmark: ok=%v name=%q", ok, name)
	}
	for _, noise := range []string{
		"goos: linux", "PASS", "ok  \tlintime/internal/sim\t2.1s", "", "pkg: lintime",
	} {
		if _, _, ok := parse(noise); ok {
			t.Errorf("parsed noise line %q", noise)
		}
	}
}

func TestRecomputeDelta(t *testing.T) {
	led := &Ledger{
		Before: map[string]map[string]float64{"X": {"ns/op": 1000, "allocs/op": 200}},
		After:  map[string]map[string]float64{"X": {"ns/op": 600, "allocs/op": 50}},
	}
	led.recompute()
	if got := led.Delta["X"]["ns/op"]; got != -40.0 {
		t.Errorf("ns/op delta = %v, want -40", got)
	}
	if got := led.Delta["X"]["allocs/op"]; got != -75.0 {
		t.Errorf("allocs/op delta = %v, want -75", got)
	}
}

func serveSummary(shards int, breakShard int) *serve.Summary {
	rep := func(ok bool) serve.ClassReport {
		r := serve.ClassReport{FormulaTicks: 60, BudgetTicks: 8, WithinBudget: ok}
		r.Latency.P99 = 50
		if !ok {
			r.Latency.P99 = 99
		}
		return r
	}
	sum := &serve.Summary{
		PerClass: map[string]serve.ClassReport{"AOP": rep(true), "MOP": rep(true)},
	}
	sum.Config.Shards = shards
	for i := 0; i < shards; i++ {
		sum.PerShard = append(sum.PerShard, serve.ShardReport{
			Shard: i, X: 10,
			PerClass: map[string]serve.ClassReport{"AOP": rep(i != breakShard)},
		})
	}
	return sum
}

func TestGuardServe(t *testing.T) {
	if v := guardServe(serveSummary(0, -1), 0); v != 0 {
		t.Errorf("healthy single-object summary: %d violations", v)
	}
	if v := guardServe(serveSummary(4, -1), 0); v != 0 {
		t.Errorf("healthy sharded summary: %d violations", v)
	}
	if v := guardServe(serveSummary(4, 2), 0); v != 1 {
		t.Errorf("one shard over budget: %d violations, want 1", v)
	}
	// Declared shard count must match the per-shard reports.
	sum := serveSummary(3, -1)
	sum.PerShard = sum.PerShard[:2]
	if v := guardServe(sum, 0); v != 1 {
		t.Errorf("missing shard report: %d violations, want 1", v)
	}
	// Aggregate violations count too.
	sum = serveSummary(0, -1)
	bad := sum.PerClass["AOP"]
	bad.WithinBudget = false
	sum.PerClass["AOP"] = bad
	if v := guardServe(sum, 0); v != 1 {
		t.Errorf("aggregate violation: %d violations, want 1", v)
	}
}

func TestGuardServeMinOps(t *testing.T) {
	sum := serveSummary(0, -1)
	sum.OpsPerSec = 900
	if v := guardServe(sum, 870); v != 0 {
		t.Errorf("throughput above floor: %d violations", v)
	}
	if v := guardServe(sum, 901); v != 1 {
		t.Errorf("throughput below floor: %d violations, want 1", v)
	}
	// A virtual-time summary omits ops_per_sec; a floor must not silently
	// pass against it.
	sum.OpsPerSec = 0
	if v := guardServe(sum, 870); v != 1 {
		t.Errorf("missing ops_per_sec with floor: %d violations, want 1", v)
	}
	if v := guardServe(sum, 0); v != 0 {
		t.Errorf("missing ops_per_sec without floor: %d violations", v)
	}
}

func TestServeDiff(t *testing.T) {
	a := serveSummary(0, -1)
	a.Config.Codec = "json"
	a.OpsPerSec = 400.5
	a.TotalOps = 4000
	b := serveSummary(0, -1)
	b.Config.Codec = "binary"
	b.Config.Pipeline = 8
	b.OpsPerSec = 1900.25
	b.TotalOps = 19000

	var sb strings.Builder
	serveDiff(&sb, []string{"a.json", "b.json"}, []*serve.Summary{a, b})
	out := sb.String()
	for _, want := range []string{
		"json", "binary", // codec column labels
		"400.50", "1900.25",
		"total ops", "4000", "19000",
		"pipeline",
		"AOP p99 (slo)", "50 (68)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff missing %q:\n%s", want, out)
		}
	}

	// Same codec on both sides → columns fall back to file names.
	b.Config.Codec = "json"
	sb.Reset()
	serveDiff(&sb, []string{"a.json", "b.json"}, []*serve.Summary{a, b})
	if !strings.Contains(sb.String(), "a.json") || !strings.Contains(sb.String(), "b.json") {
		t.Fatalf("duplicate codecs did not fall back to file labels:\n%s", sb.String())
	}
}
