package main

import "time"

// The benchmark's fixed vocabulary: workloads, end-to-end metrics and
// per-layer metrics. BENCHMARK.json at the repository root lists the same
// names; bench_test.go fails when the two drift apart.

// Model parameters shared by every live workload: d=40, u=20,
// ε=(1−1/n)u=16, X=ε ticks at n=5, offsets zero, default batch window.
const (
	modelN = 5
	modelD = 40
)

// Algorithm 1 is safe only while the host delivers every message inside
// [d−u, d]. rtnet draws delays from the lower half of that interval, which
// leaves u/2 = 10 ticks of slack for scheduling hiccups — and this Go
// runtime, on a 2-core host, stalls one P for 2–4 ms in every GC cycle.
// At a 250µs tick (2.5 ms of slack) 0.3 % of deliveries arrived late and one
// run in twelve recorded a non-linearizable object; at 1 ms none did.
//
// The quorum backend reads no clocks, so it carries the overhead-bound
// regime at a fine tick. At 100µs software overhead is 38 % of its service
// time. At 50µs a message's delay (1.0–1.45 ms) falls between two wake-ups
// of the Go netpoller, which sleeps in whole milliseconds while every P is
// idle: each hop is up to 1 ms late or on time depending on whether a P
// happens to be awake, and the median service time flips between runs
// (1.28, 1.18 or 1.09 of the bound). See README.md.
const (
	alg1Tick   = time.Millisecond
	quorumTick = 100 * time.Microsecond
	// probeTick is the tick of the single-flight serving probe, which checks
	// no history: a fine tick keeps the ±1 tick rounding of each service
	// time below the overhead it measures.
	probeTick = 100 * time.Microsecond
)

const (
	alg1Shards      = 4
	alg1Keys        = 32
	closedClients   = 8
	closedPipeline  = 8 // 64 in flight > 20 slots: saturating
	openInflightCap = 512
	// openRate is the open loop's offered load in operations per second:
	// about 60 % of model capacity, and enough for 1000 operations in each
	// sub-window.
	openRate      = 280.0
	quorumClients = 8

	// fuzzPerSecond sizes verify-virtual: the work is a pure function of
	// (seed, seconds), chosen so a run takes about --seconds on the 2-core
	// reference box.
	fuzzPerSecond = 6000

	// genLateLimit invalidates an open-loop run whose generator fell
	// behind: a fifth of the median end-to-end latency.
	genLateLimit = 2 * time.Millisecond
	checkTimeout = 60 * time.Second
)

const (
	wlAlg1Closed    = "alg1-closed"
	wlAlg1OpenTCP   = "alg1-open-tcp"
	wlQuorumCrash   = "quorum-crash"
	wlVerifyVirtual = "verify-virtual"
)

type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{wlAlg1Closed, "Algorithm 1, 4 shards x n=5 in process, write-heavy, 64 calls in flight on 20 slots: the timer-bound regime with a closed-form capacity; no wire codec"},
	{wlAlg1OpenTCP, "same deployment over loopback TCP, binary codec, read-heavy, Poisson arrivals at 280 ops/s timed from due time: wire path and router queueing block the reply"},
	{wlQuorumCrash, "ABD quorum register n=5 at a 100us tick, 8 closed-loop clients, replicas 3 and 4 crashed mid-window: message-heavy, overhead-bound, and the fault run"},
	{wlVerifyVirtual, "adversary.Fuzz then bmc.Verify then the mutant kill matrix in virtual time: the same replicas and checker under sim.Engine, CPU-bound, no wall-clock waits"},
}

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// Every workload reports every end-to-end metric. README.md defines each
// one on the live workloads and on verify-virtual, and says which
// end-to-end metric every per-layer metric should move, on which workload.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "efficiency", Unit: "ratio", Better: "higher", Bound: 0.15},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.06},
	{Name: "bound_ratio_p50", Unit: "ratio", Better: "lower", Bound: 0.05},
	{Name: "bound_ratio_p99", Unit: "ratio", Better: "lower", Bound: 0.10},
	{Name: "e2e_p50_us", Unit: "us", Better: "lower", Bound: 0.05},
	{Name: "e2e_p99_us", Unit: "us", Better: "lower", Bound: 0.20},
}

var termClasses = []string{"AOP", "MOP", "OOP"}

var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	defs := []metricDef{
		// serve
		{Name: "serve.dispatch_us", Unit: "us", Better: "lower"},
		{Name: "serve.wire_rtt_us", Unit: "us", Better: "lower"},
		{Name: "serve.wire_bytes_per_op", Unit: "count", Better: "lower"},
		{Name: "serve.wire_frames_per_op", Unit: "count", Better: "lower"},
		{Name: "serve.queue_wait_p50_us", Unit: "us", Better: "lower"},
		{Name: "serve.queue_wait_p99_us", Unit: "us", Better: "lower"},
		{Name: "serve.slot_occupancy", Unit: "ratio", Better: "higher"},
		{Name: "serve.shard_imbalance", Unit: "ratio", Better: "lower"},
		{Name: "serve.pre_crash_ops_per_s", Unit: "1/s", Better: "higher"},
		{Name: "serve.post_crash_ops_per_s", Unit: "1/s", Better: "higher"},
		{Name: "serve.unavailable", Unit: "count", Better: "lower"},
		{Name: "serve.gap_max_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.drain_ms", Unit: "ms", Better: "lower"},
		// rtnet
		{Name: "rtnet.msgs_per_op", Unit: "count", Better: "lower"},
		{Name: "rtnet.timer_fires_per_op", Unit: "count", Better: "lower"},
		{Name: "rtnet.batch_size_mean", Unit: "count", Better: "higher"},
		{Name: "rtnet.inbox_depth_max", Unit: "count", Better: "lower"},
		{Name: "rtnet.msg_delay_p99_ticks", Unit: "ticks", Better: "lower"},
		{Name: "rtnet.late_delivery_share", Unit: "ratio", Better: "lower"},
		{Name: "rtnet.overflows", Unit: "count", Better: "lower"},
		{Name: "rtnet.timer_late_p50_us", Unit: "us", Better: "lower"},
		{Name: "rtnet.timer_late_p99_us", Unit: "us", Better: "lower"},
		{Name: "rtnet.deliver_late_p50_us", Unit: "us", Better: "lower"},
		{Name: "rtnet.deliver_late_p99_us", Unit: "us", Better: "lower"},
		{Name: "rtnet.invoke_overhead_us", Unit: "us", Better: "lower"},
		// core / quorum
		{Name: "core.virtual_ns_per_op", Unit: "ns", Better: "lower"},
		{Name: "core.virtual_allocs_per_op", Unit: "count", Better: "lower"},
		{Name: "quorum.virtual_ns_per_op", Unit: "ns", Better: "lower"},
		{Name: "quorum.msgs_per_op", Unit: "count", Better: "lower"},
		{Name: "quorum.phases_per_op", Unit: "count", Better: "lower"},
		// sim
		{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
		{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "sim.allocs_per_run", Unit: "count", Better: "lower"},
		{Name: "sim.queue_len_max", Unit: "count", Better: "lower"},
		// lincheck / strongcheck
		{Name: "lincheck.ops_per_s", Unit: "1/s", Better: "higher"},
		{Name: "lincheck.explored_per_op", Unit: "count", Better: "lower"},
		{Name: "lincheck.check_s", Unit: "s", Better: "lower"},
		{Name: "lincheck.quorum_check_s", Unit: "s", Better: "lower"},
		{Name: "strongcheck.sweep_share", Unit: "ratio", Better: "lower"},
		{Name: "strongcheck.tree_ops_per_s", Unit: "1/s", Better: "higher"},
		// adversary / bmc / harness
		{Name: "adversary.sched_per_s", Unit: "1/s", Better: "higher"},
		{Name: "adversary.runner_us_per_run", Unit: "us", Better: "lower"},
		{Name: "adversary.signatures", Unit: "count", Better: "higher"},
		{Name: "adversary.parallel_speedup", Unit: "ratio", Better: "higher"},
		{Name: "bmc.runs_per_s", Unit: "1/s", Better: "higher"},
		{Name: "bmc.histories", Unit: "count", Better: "higher"},
		{Name: "bmc.parallel_speedup", Unit: "ratio", Better: "higher"},
		{Name: "harness.tables_ms", Unit: "ms", Better: "lower"},
		// obs
		{Name: "obs.trace_ops_ratio", Unit: "ratio", Better: "higher"},
		{Name: "obs.trace_cpu_ratio", Unit: "ratio", Better: "lower"},
		{Name: "obs.trace_allocs_per_op", Unit: "ratio", Better: "lower"},
		{Name: "obs.dropped_trees", Unit: "count", Better: "lower"},
		// spans recorded by the benchmark around its calls into each layer
		{Name: "span.client_call_self_us", Unit: "us", Better: "lower"},
		{Name: "span.wire_self_us", Unit: "us", Better: "lower"},
		{Name: "span.router_callkey_self_us", Unit: "us", Better: "lower"},
		{Name: "span.cluster_service_self_us", Unit: "us", Better: "lower"},
		// generator and process
		{Name: "gen.late_p99_us", Unit: "us", Better: "lower"},
		{Name: "gen.late_max_us", Unit: "us", Better: "lower"},
		{Name: "gen.offered_per_s", Unit: "1/s", Better: "higher"},
		{Name: "proc.cpu_us_per_op", Unit: "us", Better: "lower"},
		{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
		{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	}
	// The attribution means: queue+exec is software overhead, the other
	// four are designed waits and must match the formula.
	for _, class := range termClasses {
		for _, term := range termNames {
			defs = append(defs, metricDef{Name: termMetric(class, term), Unit: "ticks", Better: "lower"})
		}
	}
	return defs
}

var termNames = []string{"x_wait", "net_delay", "batch_residency", "queue", "exec", "skew_adjust"}
