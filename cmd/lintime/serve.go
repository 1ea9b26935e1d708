package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lintime/internal/classify"
	"lintime/internal/harness"
	"lintime/internal/obs"
	"lintime/internal/rtnet"
	"lintime/internal/serve"
	"lintime/internal/sim"
	"lintime/internal/simtime"
)

// serveD is d's default for the real-time commands (serve, load): they run
// on a wall clock, so 40 ticks (40ms at the default 1ms tick), not the
// simulator's 2·Quantum, which would make every operation take seconds.
const serveD = 40

// serveEcho is the stable JSON rendering of a resolved serving
// configuration, printed by `lintime serve -dry-run` and pinned by a
// golden test: field order is fixed and map keys are sorted by
// encoding/json.
type serveEcho struct {
	Type string `json:"type"`
	// Backend is set only for a non-default protocol: the core default
	// stays omitted so historical echoes are unchanged.
	Backend     string            `json:"backend,omitempty"`
	Addr        string            `json:"addr"`
	N           int               `json:"n"`
	D           int64             `json:"d"`
	U           int64             `json:"u"`
	Epsilon     int64             `json:"eps"`
	X           int64             `json:"x"`
	TickNS      int64             `json:"tick_ns"`
	Offsets     string            `json:"offsets"`
	OffsetTicks []int64           `json:"offset_ticks"`
	Seed        int64             `json:"seed"`
	InboxDepth  int               `json:"inbox_depth"`
	Classes     map[string]string `json:"classes"`
	// FormulaTicks maps each class to its Algorithm 1 worst-case latency
	// in ticks; BudgetTicks is the scheduling-jitter allowance the load
	// generator's SLO check adds on top.
	FormulaTicks map[string]int64 `json:"formula_ticks"`
	BudgetTicks  int64            `json:"jitter_budget_ticks"`
}

func buildServeEcho(s *serve.Server, addr string, tick time.Duration) serveEcho {
	cfg := s.Config()
	p := cfg.Params
	classes := map[string]string{}
	for op, class := range s.Classes() {
		classes[op] = class.String()
	}
	formulas := map[string]int64{}
	for _, class := range s.Classes() {
		formulas[class.String()] = int64(s.Formula(class))
	}
	backend := cfg.Backend
	if def, _ := harness.Lookup(""); backend == def.Name {
		backend = "" // the default protocol stays omitted
	}
	inboxDepth := cfg.InboxDepth
	if inboxDepth == 0 {
		inboxDepth = rtnet.DefaultInboxDepth
	}
	offsets := s.Trace().Offsets
	offsetTicks := make([]int64, len(offsets))
	for i, off := range offsets {
		offsetTicks[i] = int64(off)
	}
	return serveEcho{
		Type: cfg.TypeName, Backend: backend, Addr: addr,
		N: p.N, D: int64(p.D), U: int64(p.U), Epsilon: int64(p.Epsilon), X: int64(p.X),
		TickNS: tick.Nanoseconds(), Offsets: cfg.Offsets, OffsetTicks: offsetTicks,
		Seed: cfg.Seed, InboxDepth: inboxDepth, Classes: classes,
		FormulaTicks: formulas, BudgetTicks: int64(serve.JitterBudget(tick)),
	}
}

// shardSetEcho is the dry-run rendering of a sharded deployment: the
// router-level facts plus each shard's full single-cluster echo (its own
// seed-derived offsets and its own X → formula table).
type shardSetEcho struct {
	Type     string      `json:"type"`
	Addr     string      `json:"addr"`
	Shards   int         `json:"shards"`
	PerShard []serveEcho `json:"per_shard"`
}

func buildShardSetEcho(ss *serve.ShardSet, addr string, tick time.Duration) shardSetEcho {
	e := shardSetEcho{Type: ss.Config().TypeName, Addr: addr, Shards: ss.Shards()}
	for i := 0; i < ss.Shards(); i++ {
		e.PerShard = append(e.PerShard, buildServeEcho(ss.Shard(i), "", tick))
	}
	return e
}

func writeJSON(v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	getTarget := backendFlags(fs, paramFlagsWith(fs, 5, serveD))
	addr := fs.String("addr", "127.0.0.1:8377", "TCP listen address")
	tick := fs.Duration("tick", time.Millisecond, "wall-clock duration of one virtual tick")
	offsets := fs.String("offsets", harness.OffZero, "clock offsets (zero, spread, alternating, random)")
	seed := fs.Int64("seed", 1, "master seed (delay draws, offset assignment)")
	inboxDepth := fs.Int("inbox-depth", rtnet.DefaultInboxDepth, "per-process rtnet inbox bound (overflow is a typed cluster failure)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight operations")
	shards := fs.Int("shards", 1, "shard count: >1 serves named objects hash-routed across independent clusters")
	shardX := fs.String("shard-x", "", "per-shard X overrides, comma-separated ticks (requires -shards entries)")
	dryRun := fs.Bool("dry-run", false, "print the resolved serving configuration as JSON and exit")
	traceN := fs.Int("trace", 0, "causal flight recorder: retain the last N complete operation trees per cluster and export trace_term_ticks attribution histograms on /metrics")
	startObs := obsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceN < 0 {
		return fmt.Errorf("serve: -trace must be ≥ 0, got %d", *traceN)
	}
	p, backend, dt, err := getTarget()
	if err != nil {
		return err
	}
	if *shards < 1 {
		return fmt.Errorf("serve: -shards must be ≥ 1, got %d", *shards)
	}
	sx, err := parseShardX(*shardX, *shards)
	if err != nil {
		return err
	}
	if *shards == 1 && sx != nil {
		p.X = sx[0]
	}
	ss, err := serve.NewShardSet(serve.ShardSetConfig{
		Config: serve.Config{
			Params: p, Backend: backend.Name, TypeName: dt.Name(), Tick: *tick,
			Offsets: *offsets, Seed: *seed, InboxDepth: *inboxDepth,
		},
		Shards: *shards, ShardX: sx,
	})
	if err != nil {
		return err
	}
	if *dryRun {
		// The M = 1 echo is the single cluster's own, as it was before
		// sharding existed.
		if *shards == 1 {
			return writeJSON(buildServeEcho(ss.Shard(0), *addr, *tick))
		}
		return writeJSON(buildShardSetEcho(ss, *addr, *tick))
	}
	ob, err := startObs(ss.ObsHandler(), append(ss.Registries(), obs.Default), *traceN,
		func(newColl func() *obs.Collector) { ss.SetTracers(func(int) *obs.Collector { return newColl() }) })
	if err != nil {
		return err
	}
	defer ob.stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ss.Start()
	banner := fmt.Sprintf("%d×%s shards (n=%d d=%v u=%v ε=%v base X=%v)",
		*shards, dt.Name(), p.N, p.D, p.U, p.Epsilon, p.X)
	if *shards == 1 {
		banner = fmt.Sprintf("%s cluster (n=%d d=%v u=%v ε=%v X=%v)", dt.Name(), p.N, p.D, p.U, p.Epsilon, p.X)
	}
	fmt.Fprintf(os.Stderr, "lintime serve: %s on %s, tick %v\n", banner, ln.Addr(), *tick)
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	errCh := make(chan error, 1)
	go func() { errCh <- ss.Serve(ln) }()
	var serveErr error
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "lintime serve: %v — draining (pending operations complete, budget %v)\n",
			sig, *drainTimeout)
		serveErr = ss.Drain(*drainTimeout)
		<-errCh // Serve returns nil on a drain-initiated close
	case serveErr = <-errCh:
		// Listener failure: still shut the cluster down cleanly.
		if err := ss.Drain(*drainTimeout); err != nil && serveErr == nil {
			serveErr = err
		}
	}
	if err := writeJSON(ss.Stats()); err != nil && serveErr == nil {
		serveErr = err
	}
	// The final -obs-out snapshot lands after the drain on both the SIGINT
	// and the SIGTERM shutdown paths.
	if err := ob.flush(); err != nil && serveErr == nil {
		serveErr = err
	}
	return serveErr
}

// parseMix parses "enqueue=3,dequeue=1,peek" (weight defaults to 1) into
// a workload mix; empty input means uniform over all declared operations.
// Duplicate operations and non-positive weights are rejected: a repeated
// op silently doubles its probability, and a zero weight silently runs a
// different mix than the one written down — both are config typos the
// run should refuse, not absorb.
func parseMix(s string) ([]harness.OpPick, error) {
	if s == "" {
		return nil, nil
	}
	var mix []harness.OpPick
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		op, weight := part, 1
		if eq := strings.IndexByte(part, '='); eq >= 0 {
			var err error
			op = strings.TrimSpace(part[:eq])
			weight, err = strconv.Atoi(strings.TrimSpace(part[eq+1:]))
			if err != nil {
				return nil, fmt.Errorf("bad mix entry %q (want op=weight): %v", part, err)
			}
		}
		if op == "" {
			return nil, fmt.Errorf("bad mix entry %q: empty operation name", part)
		}
		if weight <= 0 {
			return nil, fmt.Errorf("bad mix entry %q: weight must be positive (drop the entry to exclude the op)", part)
		}
		if seen[op] {
			return nil, fmt.Errorf("bad mix: operation %q appears twice (merge the weights into one entry)", op)
		}
		seen[op] = true
		mix = append(mix, harness.OpPick{Op: op, Weight: weight})
	}
	return mix, nil
}

// parseShardX parses a per-shard X override list ("5,10,20") and checks
// it against the shard count.
func parseShardX(s string, shards int) ([]simtime.Duration, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != shards {
		return nil, fmt.Errorf("-shard-x lists %d values for %d shards", len(parts), shards)
	}
	out := make([]simtime.Duration, len(parts))
	for i, part := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad -shard-x entry %q: want a non-negative tick count", part)
		}
		out[i] = simtime.Duration(v)
	}
	return out, nil
}

// crashSpec is one scheduled fault injection: crash process proc after
// the run has been going for the given wall-clock delay.
type crashSpec struct {
	proc  int
	after time.Duration
}

// parseCrashes parses a -crash schedule ("2@3s" or "2@3s,1@5s") and
// refuses schedules that would crash a majority: with fewer than a
// majority of replicas alive no quorum can form, so the run could never
// complete another operation and the closed-loop clients would hang.
func parseCrashes(s string, n int) ([]crashSpec, error) {
	if s == "" {
		return nil, nil
	}
	var out []crashSpec
	seen := map[int]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		at := strings.IndexByte(part, '@')
		if at < 0 {
			return nil, fmt.Errorf("bad -crash entry %q (want proc@delay, e.g. 2@3s)", part)
		}
		proc, err := strconv.Atoi(strings.TrimSpace(part[:at]))
		if err != nil || proc < 0 || proc >= n {
			return nil, fmt.Errorf("bad -crash entry %q: process must be in [0,%d)", part, n)
		}
		d, err := time.ParseDuration(strings.TrimSpace(part[at+1:]))
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad -crash entry %q: want proc@delay with a non-negative delay", part)
		}
		if seen[proc] {
			return nil, fmt.Errorf("bad -crash: process %d listed twice", proc)
		}
		seen[proc] = true
		out = append(out, crashSpec{proc: proc, after: d})
	}
	if 2*len(out) >= n {
		return nil, fmt.Errorf("-crash schedules %d of %d processes: only a minority may crash (a majority must survive to form quorums)", len(out), n)
	}
	return out, nil
}

// loadKeys generates the keyed workload's object names: obj-0..obj-{n-1}.
// Fixed names keep runs reproducible and let the pinned FNV-1a mapping
// determine each object's home shard ahead of time.
func loadKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj-%d", i)
	}
	return keys
}

func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	getTarget := backendFlags(fs, paramFlagsWith(fs, 5, serveD))
	crashFlag := fs.String("crash", "", "crash schedule for the in-process cluster, e.g. 2@3s (comma-separated proc@delay; minority only)")
	clients := fs.Int("clients", 8, "closed-loop client count")
	duration := fs.Duration("duration", 5*time.Second, "run length (ignored when -ops is set)")
	ops := fs.Int("ops", 0, "operations per client (0 = run for -duration)")
	mixFlag := fs.String("mix", "", "op mix, e.g. enqueue=2,dequeue=1,peek=1 (default uniform)")
	seed := fs.Int64("seed", 1, "master seed; per-client streams are derived")
	addr := fs.String("addr", "", "drive a remote `lintime serve` at this address (model flags must match the server)")
	pipeline := fs.Int("pipeline", 1, "operations each client keeps in flight (k > 1 fills the replicas' slots; multiset of issued ops stays deterministic)")
	tick := fs.Duration("tick", time.Millisecond, "tick duration of the driven cluster")
	offsets := fs.String("offsets", harness.OffZero, "clock offsets for the in-process cluster")
	simMode := fs.Bool("sim", false, "run the workload on the virtual-time engine instead (deterministic, tick-exact; clients = n, requires -ops)")
	outFile := fs.String("o", "", "write the JSON summary to this file instead of stdout")
	requireSLO := fs.Bool("require-slo", false, "exit nonzero unless every class's p99 is within formula + jitter budget (per shard too, in sharded runs)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for the in-process cluster")
	shards := fs.Int("shards", 1, "drive a sharded deployment: >1 spins up that many in-process shard clusters (or describes the remote router for -addr)")
	shardX := fs.String("shard-x", "", "per-shard X overrides, comma-separated ticks (requires -shards entries)")
	keyCount := fs.Int("keys", 0, "object count for keyed (multi-object) load: objects obj-0..obj-{n-1} (required when -shards > 1)")
	zipf := fs.Float64("zipf", 0, "Zipfian key-popularity exponent s > 1 (0 or ≤1 = uniform); skews load onto the hot key's home shard")
	checkObjects := fs.Bool("check-objects", false, "after an in-process sharded run, verify routing and per-object linearizability; exit nonzero on violation")
	traceN := fs.Int("trace", 0, "causal flight recorder: retain the last N complete operation trees per cluster and export trace_term_ticks attribution histograms; on SLO violation the trees dump as Chrome trace JSON (-trace-out)")
	traceOut := fs.String("trace-out", "lintime-trace-dump.json", "flight-recorder dump path for -trace (written on SLO violation)")
	startObs := obsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, backend, dt, err := getTarget()
	if err != nil {
		return err
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		return err
	}
	crashes, err := parseCrashes(*crashFlag, p.N)
	if err != nil {
		return err
	}
	for _, rule := range []struct {
		bad bool
		msg string
	}{
		{backend.Bound == nil, fmt.Sprintf("load: backend %s declares no latency bound to judge against", backend.Name)},
		{len(crashes) > 0 && (*simMode || *addr != "" || *shards > 1), "load: -crash injects into the in-process single-cluster run only (for virtual-time crash sweeps use lintime verify -backend quorum)"},
		{*shards < 1, fmt.Sprintf("load: -shards must be ≥ 1, got %d", *shards)},
		{*shards > 1 && *keyCount <= 0, "load: sharded runs need -keys (the number of named objects to spread across shards)"},
		{*zipf != 0 && *zipf <= 1, "load: -zipf needs s > 1 (the Zipf law diverges at s ≤ 1); 0 means uniform"},
		{*keyCount > 0 && *simMode, "load: -sim has no keyed mode (shard the virtual-time engine with separate runs)"},
		{*traceN < 0, fmt.Sprintf("load: -trace must be ≥ 0, got %d", *traceN)},
		{*traceN > 0 && *addr != "", "load: -trace records on the in-process cluster (the collector lives server-side; use `lintime serve -trace` for remote runs)"},
		{*pipeline < 1, fmt.Sprintf("load: -pipeline must be ≥ 1, got %d", *pipeline)},
		{*simMode && *pipeline > 1, "load: -sim has no pipelined mode (the virtual-time engine keeps one op pending per process)"},
		{*simMode && *ops <= 0, "load: -sim needs -ops (virtual time has no wall-clock duration)"},
	} {
		if rule.bad {
			return errors.New(rule.msg)
		}
	}
	sx, err := parseShardX(*shardX, *shards)
	if err != nil {
		return err
	}
	if *shards == 1 && sx != nil {
		p.X = sx[0]
	}
	keys := loadKeys(*keyCount)
	// Per-shard attribution for the summary, the deployment's exact
	// parameters: the base ones with each shard's X.
	var shardParams []simtime.Params
	if *shards > 1 {
		shardParams = make([]simtime.Params, *shards)
		for i := range shardParams {
			shardParams[i] = p
			if sx != nil {
				shardParams[i].X = sx[i]
			}
		}
	}

	// SIGINT/SIGTERM ends the run gracefully: clients stop submitting,
	// the cluster drains through the normal shutdown path, and the
	// summary plus any -obs-out final snapshot cover the work done so
	// far — a shortened run, not an aborted one.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	stopCh := make(chan struct{})
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "lintime load: %v — stopping clients, draining, flushing summary\n", sig)
		close(stopCh)
	}()

	loadCfg := serve.LoadConfig{
		Clients: *clients, Duration: *duration, OpsPerClient: *ops, Mix: mix, Seed: *seed,
		Stop: stopCh, Keys: keys, Zipf: *zipf, ShardParams: shardParams, Backend: backend.Name,
		Pipeline: *pipeline,
	}

	// ob.colls is the causal flight recorder: one collector per in-process
	// cluster, merged at dump time.
	var ob obsRun
	var sum *serve.Summary
	switch {
	case *simMode:
		hcfg := harness.Config{Params: p, TypeName: dt.Name(), Algorithm: backend.Name,
			Network: harness.NetRandom, Offsets: *offsets, Seed: *seed,
			Trace: sim.TraceOps}
		if ob, err = startObs(obs.Handler(obs.Default), []*obs.Registry{obs.Default}, *traceN,
			func(newColl func() *obs.Collector) { hcfg.Tracer = newColl() }); err != nil {
			return err
		}
		defer ob.stop()
		res, err := harness.Run(hcfg,
			harness.Workload{OpsPerProc: *ops, MaxGap: p.D / 2, Seed: *seed, Mix: mix})
		if err != nil {
			return err
		}
		echo := serve.SummaryConfig{
			Type: dt.Name(), Mode: "sim", Clients: p.N, OpsPerClient: *ops,
			Mix: serve.FormatMix(mix), Seed: *seed,
			N: p.N, D: int64(p.D), U: int64(p.U), Epsilon: int64(p.Epsilon), X: int64(p.X),
		}
		sum = serve.Summarize(func(class classify.Class) simtime.Duration { return backend.Bound(p, class) },
			0, harness.ClassesFor(dt), res.Trace.Ops, echo)
	case *addr != "":
		c, err := serve.Dial(*addr)
		if err != nil {
			return err
		}
		defer c.Close()
		if ob, err = startObs(obs.Handler(obs.Default), []*obs.Registry{obs.Default}, 0, nil); err != nil {
			return err
		}
		defer ob.stop()
		if sum, err = serve.RunLoad(c, dt, p, *tick, loadCfg); err != nil {
			return err
		}
		sum.Config.Mode = "tcp"
	default:
		ss, err := serve.NewShardSet(serve.ShardSetConfig{
			Config: serve.Config{Params: p, Backend: backend.Name, TypeName: dt.Name(), Tick: *tick, Offsets: *offsets, Seed: *seed},
			Shards: *shards, ShardX: sx,
		})
		if err != nil {
			return err
		}
		if ob, err = startObs(ss.ObsHandler(), append(ss.Registries(), obs.Default), *traceN,
			func(newColl func() *obs.Collector) { ss.SetTracers(func(int) *obs.Collector { return newColl() }) }); err != nil {
			return err
		}
		defer ob.stop()
		ss.Start()
		// Scheduled fault injection (one shard only): each entry crashes
		// its process mid-run; the shard drops it from rotation and (on the
		// quorum backend) the survivors keep serving. Timers that have not
		// fired by the end of the run are stopped, not left to crash a
		// cluster that is already draining.
		timers := make([]*time.Timer, 0, len(crashes))
		for _, c := range crashes {
			timers = append(timers, time.AfterFunc(c.after, func() {
				fmt.Fprintf(os.Stderr, "lintime load: crashing process %d (t=%v)\n", c.proc, c.after)
				ss.Shard(0).Crash(c.proc)
			}))
		}
		sum, err = serve.RunLoad(ss, dt, p, *tick, loadCfg)
		for _, t := range timers {
			t.Stop()
		}
		if drainErr := ss.Drain(*drainTimeout); drainErr != nil && err == nil {
			err = drainErr
		}
		if err != nil {
			return err
		}
		sum.Config.Mode = "inproc"
		if *checkObjects && *shards > 1 {
			rep := ss.CheckPerObject(0)
			fmt.Fprintf(os.Stderr, "lintime load: per-object check: %d objects, %d ops, %d routing violations, %d non-linearizable\n",
				rep.Keys, rep.Ops, len(rep.RoutingViolations), len(rep.NonLinearizable))
			if !rep.OK() {
				return fmt.Errorf("load: per-object verification failed (%d routing violations, non-linearizable objects %v)",
					len(rep.RoutingViolations), rep.NonLinearizable)
			}
		}
	}

	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	if *outFile != "" {
		if err := os.WriteFile(*outFile, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "lintime load: summary written to %s (SLO met: %v)\n", *outFile, sum.SLOMet())
	} else {
		fmt.Println(string(b))
	}
	// Final snapshot flush (also the path a signal-shortened run takes).
	if err := ob.flush(); err != nil {
		return err
	}
	// Flight-recorder dump: on an SLO violation the last N complete
	// causal trees — the operations whose latency the violation is made
	// of — land as a Chrome trace for post-mortem attribution.
	if len(ob.colls) > 0 && !sum.SLOMet() {
		var trees []*obs.Tree
		for _, c := range ob.colls {
			trees = append(trees, c.Trees()...)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, trees); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "lintime load: SLO violated — flight recorder dumped %d causal trees to %s\n",
			len(trees), *traceOut)
	}
	if *requireSLO && !sum.SLOMet() {
		return fmt.Errorf("load: latency SLO violated (a class's p99 exceeds its formula + jitter budget)")
	}
	return nil
}
