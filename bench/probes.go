package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"lintime/internal/adt"
	"lintime/internal/adversary"
	"lintime/internal/bmc"
	"lintime/internal/core"
	"lintime/internal/harness"
	"lintime/internal/lincheck"
	"lintime/internal/obs"
	"lintime/internal/rtnet"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// Layer probes: small fixed measurements of one layer each, run in every
// traced run whatever the workload, so each layer keeps one trajectory
// across changes. They call only public functions of the layer.

// probeScale shortens the probes for the -quick smoke path.
type probeScale struct {
	rtnetFor   time.Duration // per rtnet probe cluster
	serveFor   time.Duration // per single-flight serving probe
	invokes    int
	virtualOps int // operations per process of the virtual-time runs
	simRuns    int
	fuzzBudget int
	bmcOps     int
	runnerRuns int
}

func scaleProbes(quick bool) probeScale {
	if quick {
		return probeScale{rtnetFor: 150 * time.Millisecond, serveFor: 150 * time.Millisecond, invokes: 500,
			virtualOps: 40, simRuns: 4, fuzzBudget: 128, bmcOps: 2, runnerRuns: 64}
	}
	return probeScale{rtnetFor: 2 * time.Second, serveFor: 2 * time.Second, invokes: 20000,
		virtualOps: 2000, simRuns: 40, fuzzBudget: 8192, bmcOps: 3, runnerRuns: 4096}
}

func runProbes(cfg runConfig, out layerValues) error {
	sc := scaleProbes(cfg.quick)
	for _, probe := range []func(runConfig, probeScale, layerValues) error{
		probeRtnet, probeServe, probeVirtual, probeSim, probeCheckers, probeVerifiers,
	} {
		if err := probe(cfg, sc, out); err != nil {
			return err
		}
	}
	return nil
}

// --- rtnet -----------------------------------------------------------------

// probeNode is the benchmark's own sim.Node. In timer mode an invocation
// sets one timer and responds when it fires; in echo mode process 0 sends
// to process 1, which sends back, and process 0 responds; in reply mode it
// responds at once. It records how late each timer fire or delivery was
// against the wall clock.
type probeNode struct {
	mode    int
	tick    time.Duration
	wait    simtime.Duration // timer mode: ticks to wait; echo mode: the fixed one-way delay
	mu      *sync.Mutex
	lateUS  *[]float64
	invoked time.Time
	pending int64
}

const (
	probeTimer = iota
	probeEcho
	probeReply
)

type probeMsg struct {
	sent time.Time
	back bool
}

func (n *probeNode) Init(sim.Context) {}

func (n *probeNode) record(late time.Duration) {
	n.mu.Lock()
	*n.lateUS = append(*n.lateUS, float64(late)/1e3)
	n.mu.Unlock()
}

func (n *probeNode) OnInvoke(ctx sim.Context, inv sim.Invocation) {
	switch n.mode {
	case probeTimer:
		n.pending, n.invoked = inv.SeqID, time.Now()
		ctx.SetTimer(n.wait, nil)
	case probeEcho:
		n.pending = inv.SeqID
		ctx.Send(1, probeMsg{sent: time.Now()})
	default:
		ctx.Respond(inv.SeqID, nil)
	}
}

func (n *probeNode) OnTimer(ctx sim.Context, _ any) {
	n.record(time.Since(n.invoked) - time.Duration(n.wait)*n.tick)
	ctx.Respond(n.pending, nil)
}

func (n *probeNode) OnMessage(ctx sim.Context, from sim.ProcID, payload any) {
	m := payload.(probeMsg)
	n.record(time.Since(m.sent) - time.Duration(n.wait)*n.tick)
	if m.back {
		ctx.Respond(n.pending, nil)
		return
	}
	ctx.Send(from, probeMsg{sent: time.Now(), back: true})
}

// probeCluster runs procs closed-loop callers against a cluster of probe
// nodes for the given time and returns the recorded lateness.
func probeCluster(mode, n, callers int, wait simtime.Duration, tick, runFor time.Duration, seed int64) ([]float64, error) {
	p := modelParams(n)
	var mu sync.Mutex
	var late []float64
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = &probeNode{mode: mode, tick: tick, wait: wait, mu: &mu, lateUS: &late}
	}
	c, err := rtnet.NewCluster(rtnet.Params{Params: p}, tick, make([]simtime.Duration, n), nodes, seed)
	if err != nil {
		return nil, err
	}
	if mode == probeEcho {
		c.UseNetwork(sim.UniformNetwork{D: wait})
	}
	c.Start()
	deadline := time.Now().Add(runFor)
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for proc := 0; proc < callers; proc++ {
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if _, err := c.Call(sim.ProcID(proc), "probe", nil); err != nil {
					errs[proc] = err
					return
				}
			}
		}(proc)
	}
	wg.Wait()
	if err := c.Drain(drainTimeout); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	mu.Lock()
	defer mu.Unlock()
	return late, nil
}

func probeRtnet(cfg runConfig, sc probeScale, out layerValues) error {
	seed := harness.DeriveSeed(cfg.seed, "bench/probe/rtnet")
	// Timers of the three class bounds' order of magnitude, five processes
	// each with one pending operation: the shape Algorithm 1 gives rtnet.
	late, err := probeCluster(probeTimer, modelN, modelN, 32, alg1Tick, sc.rtnetFor, seed)
	if err != nil {
		return fmt.Errorf("timer probe: %w", err)
	}
	out.set("rtnet.timer_late_p50_us", quantile(late, 0.50), len(late))
	out.set("rtnet.timer_late_p99_us", quantile(late, 0.99), len(late))
	// A fixed one-way delay of 24 ticks inside the admissible lower half
	// [d−u, d−u/2], at the quorum workload's tick.
	late, err = probeCluster(probeEcho, 2, 1, 24, quorumTick, sc.rtnetFor, seed)
	if err != nil {
		return fmt.Errorf("delivery probe: %w", err)
	}
	out.set("rtnet.deliver_late_p50_us", quantile(late, 0.50), len(late))
	out.set("rtnet.deliver_late_p99_us", quantile(late, 0.99), len(late))

	// The single-node baseline: no timers, no messages, respond at once.
	var mu sync.Mutex
	var none []float64
	node := &probeNode{mode: probeReply, mu: &mu, lateUS: &none}
	c, err := rtnet.NewCluster(rtnet.Params{Params: modelParams(1)}, alg1Tick, []simtime.Duration{0}, []sim.Node{node}, seed)
	if err != nil {
		return err
	}
	c.Start()
	begin := time.Now()
	for i := 0; i < sc.invokes; i++ {
		if _, err := c.Call(0, "probe", nil); err != nil {
			return fmt.Errorf("invoke probe: %w", err)
		}
	}
	out.set("rtnet.invoke_overhead_us", float64(time.Since(begin))/1e3/float64(sc.invokes), sc.invokes)
	return c.Drain(drainTimeout)
}

// --- serve -----------------------------------------------------------------

// probeServe measures the serving layer single-flight — one call per shard
// at a time, so nothing queues — first in process, then over TCP: the
// difference between wall time and service time is dispatch overhead, and
// the difference between the two is the wire.
func probeServe(cfg runConfig, sc probeScale, out layerValues) error {
	overhead := func(tcp bool) (meanUS float64, d *deployment, ops int, err error) {
		seed := harness.DeriveSeed(cfg.seed, "bench/probe/serve")
		d, err = deployAlg1(seed, probeTick, tcp, false, alg1Shards)
		if err != nil {
			return 0, nil, 0, err
		}
		first := firstAlg1Requests(d)
		deadline := time.Now().Add(sc.serveFor)
		var wg sync.WaitGroup
		sums := make([]float64, len(first))
		counts := make([]int, len(first))
		errs := make([]error, len(first))
		for i, req := range first {
			wg.Add(1)
			go func(i int, key string) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(harness.DeriveSeed(seed, key)))
				ops := []request{{key: key, op: adt.OpEnqueue, arg: 1}, {key: key, op: adt.OpPeek}, {key: key, op: adt.OpDequeue}}
				for time.Now().Before(deadline) {
					begin := time.Now()
					resp, err := d.call(i, ops[rng.Intn(len(ops))])
					wall := time.Since(begin)
					if err != nil {
						errs[i] = err
						return
					}
					// Both service instants are floored to ticks, so one
					// difference is off by up to a tick either way; the mean over
					// many calls is unbiased.
					sums[i] += float64(wall-time.Duration(resp.Latency())*d.tick) / 1e3
					counts[i]++
				}
			}(i, req.key)
		}
		wg.Wait()
		var sum float64
		for i := range sums {
			if errs[i] != nil {
				_ = d.drain()
				return 0, nil, 0, errs[i]
			}
			sum += sums[i]
			ops += counts[i]
		}
		if err := d.drain(); err != nil {
			return 0, nil, 0, err
		}
		return sum / float64(max(ops, 1)), d, ops, nil
	}
	inproc, _, inprocOps, err := overhead(false)
	if err != nil {
		return fmt.Errorf("in-process serving probe: %w", err)
	}
	tcp, d, ops, err := overhead(true)
	if err != nil {
		return fmt.Errorf("tcp serving probe: %w", err)
	}
	out.set("serve.dispatch_us", inproc, inprocOps)
	out.set("serve.wire_rtt_us", tcp-inproc, ops)
	if _, measured := out["serve.wire_bytes_per_op"]; !measured {
		bytes, calls := d.wireCounts()
		out.set("serve.wire_bytes_per_op", float64(bytes)/float64(max(ops, 1)), ops)
		out.set("serve.wire_frames_per_op", float64(calls)/float64(max(ops, 1)), ops)
	}
	return nil
}

// --- core, quorum: handlers in virtual time ---------------------------------

// virtualRun times harness.Run: the backend's handlers with every wait
// removed.
func virtualRun(cfg runConfig, alg, typeName string, mix []harness.OpPick, opsPerProc int, tracer obs.Tracer) (*harness.Result, usage, usage, error) {
	p := modelParams(modelN)
	hcfg := harness.Config{Params: p, TypeName: typeName, Algorithm: alg, Network: harness.NetRandom,
		Offsets: harness.OffZero, Seed: harness.DeriveSeed(cfg.seed, "bench/probe/virtual/net"), Trace: sim.TraceOps, Tracer: tracer}
	wl := harness.Workload{OpsPerProc: opsPerProc, MaxGap: p.D / 2,
		Seed: harness.DeriveSeed(cfg.seed, "bench/probe/virtual/ops"), Mix: mix}
	before := readUsage()
	res, err := harness.Run(hcfg, wl)
	after := readUsage()
	return res, before, after, err
}

func probeVirtual(cfg runConfig, sc probeScale, out layerValues) error {
	res, u0, u1, err := virtualRun(cfg, harness.AlgCore, "queue", mixWriteHeavy, sc.virtualOps, nil)
	if err != nil {
		return fmt.Errorf("core virtual run: %w", err)
	}
	ops := float64(len(res.Trace.Ops))
	out.set("core.virtual_ns_per_op", float64(u1.at.Sub(u0.at))/ops, int(ops))
	out.set("core.virtual_allocs_per_op", float64(u1.mallocs-u0.mallocs)/ops, int(ops))

	phases := obs.Default.Counter("quorum_phase_total")
	phases0 := phases.Value()
	// A thousand operations per process keep the register history's check,
	// whose cost grows with the square of its length, near a second.
	res, u0, u1, err = virtualRun(cfg, harness.AlgQuorum, "register", mixRegister, min(sc.virtualOps, 1000), nil)
	if err != nil {
		return fmt.Errorf("quorum virtual run: %w", err)
	}
	ops = float64(len(res.Trace.Ops))
	out.set("quorum.virtual_ns_per_op", float64(u1.at.Sub(u0.at))/ops, int(ops))
	out.set("quorum.msgs_per_op", res.MessagesPerOp(), int(ops))
	out.set("quorum.phases_per_op", float64(phases.Value()-phases0)/ops, int(ops))

	// The register history doubles as the checker's quorum-shaped input.
	begin := time.Now()
	if !lincheck.CheckTraceParallel(mustType("register"), res.Trace, gomaxprocs()).Linearizable {
		return fmt.Errorf("virtual-time quorum history is not linearizable")
	}
	out.set("lincheck.quorum_check_s", time.Since(begin).Seconds(), int(ops))
	return nil
}

func mustType(name string) spec.DataType {
	dt, err := adt.Lookup(name)
	if err != nil {
		panic(err) // the names are literals of this package
	}
	return dt
}

// --- sim -------------------------------------------------------------------

// probeSim reuses one engine across closed-loop runs of Algorithm 1, the
// way harness.Run and the fuzzer do, with the engine's own counters on.
func probeSim(cfg runConfig, sc probeScale, out layerValues) error {
	p := modelParams(modelN)
	dt := mustType("queue")
	classes := harness.ClassesFor(dt)
	reg := obs.NewRegistry()
	metrics := &sim.EngineMetrics{Events: reg.Counter("events"), QueueMax: reg.Max("queue_max")}
	picks, err := harness.ExpandMix(dt, mixWriteHeavy)
	if err != nil {
		return err
	}
	var eng *sim.Engine
	run := func(i int) error {
		rng := rand.New(rand.NewSource(harness.DeriveSeed(cfg.seed, fmt.Sprintf("bench/probe/sim/%d", i))))
		net := sim.NewRandomNetwork(p.D, p.U, rng.Int63())
		nodes := core.NewReplicas(p.N, dt, classes, core.DefaultTimers(p))
		if eng == nil {
			if eng, err = sim.NewEngine(p, sim.ZeroOffsets(p.N), net, nodes); err != nil {
				return err
			}
		} else if err = eng.Reset(p, sim.ZeroOffsets(p.N), net, nodes); err != nil {
			return err
		}
		eng.SetTraceLevel(sim.TraceOff)
		eng.SetMetrics(metrics)
		left := make([]int, p.N)
		invoke := func(proc sim.ProcID, at simtime.Time) {
			op := picks[rng.Intn(len(picks))]
			info, _ := spec.FindOp(dt, op)
			eng.InvokeAt(proc, at, op, info.Args[rng.Intn(len(info.Args))])
		}
		eng.OnRespond = func(rec sim.OpRecord) {
			if left[rec.Proc]--; left[rec.Proc] > 0 {
				invoke(rec.Proc, rec.RespondTime)
			}
		}
		for proc := range left {
			left[proc] = 200
			invoke(sim.ProcID(proc), 0)
		}
		return eng.Run().CheckComplete()
	}
	if err := run(0); err != nil { // warm the engine's retained capacity
		return fmt.Errorf("sim probe: %w", err)
	}
	events0 := metrics.Events.Value()
	u0 := readUsage()
	for i := 1; i <= sc.simRuns; i++ {
		if err := run(i); err != nil {
			return fmt.Errorf("sim probe: %w", err)
		}
	}
	u1 := readUsage()
	events := float64(metrics.Events.Value() - events0)
	wall := u1.at.Sub(u0.at)
	out.set("sim.events_per_s", events/wall.Seconds(), int(events))
	out.set("sim.ns_per_event", float64(wall)/events, int(events))
	out.set("sim.allocs_per_run", float64(u1.mallocs-u0.mallocs)/float64(sc.simRuns), sc.simRuns)
	out.set("sim.queue_len_max", float64(metrics.QueueMax.Value()), sc.simRuns)
	return nil
}

// --- lincheck, strongcheck ---------------------------------------------------

func probeCheckers(cfg runConfig, sc probeScale, out layerValues) error {
	res, _, _, err := virtualRun(cfg, harness.AlgCore, "queue", mixWriteHeavy, min(sc.virtualOps, 400), nil)
	if err != nil {
		return err
	}
	begin := time.Now()
	check := lincheck.CheckTraceParallel(mustType("queue"), res.Trace, gomaxprocs())
	wall := time.Since(begin)
	if !check.Linearizable {
		return fmt.Errorf("virtual-time queue history is not linearizable")
	}
	ops := float64(len(res.Trace.Ops))
	out.set("lincheck.ops_per_s", ops/wall.Seconds(), int(ops))
	out.set("lincheck.explored_per_op", float64(check.Explored)/ops, int(ops))

	// The strong-linearizability sweep's share of a model-checking run: the
	// same space with the sweep on and off.
	sweep := func(strong bool) (*bmc.Report, time.Duration, error) {
		begin := time.Now()
		rep, err := bmc.Verify(bmcConfig(mustType("queue"), 2, sc.bmcOps, gomaxprocs(), strong))
		return rep, time.Since(begin), err
	}
	on, onWall, err := sweep(true)
	if err != nil {
		return err
	}
	_, offWall, err := sweep(false)
	if err != nil {
		return err
	}
	// On a space small enough for the two walls to cross, the share is 0.
	sweepS := max(onWall-offWall, 0).Seconds()
	out.set("strongcheck.sweep_share", sweepS/onWall.Seconds(), on.StrongChecked)
	out.set("strongcheck.tree_ops_per_s", 0, on.StrongExplored)
	if sweepS > 0 {
		out.set("strongcheck.tree_ops_per_s", float64(on.StrongExplored)/sweepS, on.StrongExplored)
	}
	return nil
}

// --- adversary, bmc, harness -------------------------------------------------

func probeVerifiers(cfg runConfig, sc probeScale, out layerValues) error {
	dt := mustType("queue")
	g := gomaxprocs()
	fuzz := func(parallel int) (*adversary.Report, time.Duration, error) {
		begin := time.Now()
		rep, err := adversary.Fuzz(fuzzOptions(dt, fuzzSeed(cfg.seed), sc.fuzzBudget, parallel))
		return rep, time.Since(begin), err
	}
	rep1, serial, err := fuzz(1)
	if err != nil {
		return err
	}
	repG, parallel, err := fuzz(g)
	if err != nil {
		return err
	}
	if rep1.Signatures != repG.Signatures {
		return fmt.Errorf("fuzz signatures depend on parallelism: %d at 1, %d at %d", rep1.Signatures, repG.Signatures, g)
	}
	out.set("adversary.sched_per_s", float64(repG.Schedules)/parallel.Seconds(), repG.Schedules)
	out.set("adversary.signatures", float64(repG.Signatures), repG.Schedules)
	out.set("adversary.parallel_speedup", serial.Seconds()/parallel.Seconds(), repG.Schedules)

	sweep := func(parallel int) (*bmc.Report, time.Duration, error) {
		begin := time.Now()
		rep, err := bmc.Verify(bmcConfig(dt, 2, sc.bmcOps, parallel, true))
		return rep, time.Since(begin), err
	}
	sweep1, serial, err := sweep(1)
	if err != nil {
		return err
	}
	sweepG, parallel, err := sweep(g)
	if err != nil {
		return err
	}
	if sweep1.Histories != sweepG.Histories {
		return fmt.Errorf("bmc histories depend on parallelism: %d at 1, %d at %d", sweep1.Histories, sweepG.Histories, g)
	}
	out.set("bmc.runs_per_s", float64(sweepG.Runs)/parallel.Seconds(), sweepG.Runs)
	out.set("bmc.histories", float64(sweepG.Histories), sweepG.Runs)
	out.set("bmc.parallel_speedup", serial.Seconds()/parallel.Seconds(), sweepG.Runs)

	space, err := bmc.NewSpace(bmcConfig(dt, 2, sc.bmcOps, 1, false))
	if err != nil {
		return err
	}
	runner := &adversary.Runner{Params: simtime.DefaultParams(2), DT: dt,
		Target: adversary.Target{Algorithm: harness.AlgCore}, Trace: sim.TraceOps}
	begin := time.Now()
	for i := 0; i < sc.runnerRuns; i++ {
		if _, err := runner.Run(space.Schedule(i%space.Contexts(), uint64(i))); err != nil {
			return err
		}
	}
	out.set("adversary.runner_us_per_run", float64(time.Since(begin))/1e3/float64(sc.runnerRuns), sc.runnerRuns)

	begin = time.Now()
	if _, err := harness.MeasureAllTablesParallel(simtime.DefaultParams(4), cfg.seed, g); err != nil {
		return err
	}
	out.set("harness.tables_ms", float64(time.Since(begin))/1e6, 1)
	return nil
}

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
