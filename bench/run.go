package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"lintime/internal/harness"
	"lintime/internal/obs"
	"lintime/internal/serve"
)

// runResult is one run of one workload, as written to the result file.
type runResult struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    int      `json:"trace"`
	Digest   string   `json:"input_digest"`
	Correct  bool     `json:"correct"`
	Valid    bool     `json:"valid"`
	Problems []string `json:"problems,omitempty"`
	// Discarded says why passes were measured again: the host, not the
	// program, failed them (see passResult.disturbed).
	Discarded []string `json:"discarded,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// Counts are the run's sample counts and, on verify-virtual, the exact
	// state counts the baseline pins.
	Counts  map[string]int         `json:"counts"`
	Metrics map[string]metricValue `json:"metrics"`
}

func (r *runResult) ok() bool { return r.Correct && r.Valid }

//go:embed baseline.json
var baselineJSON []byte

// baseline is bench/baseline.json: the exact state counts verify-virtual
// must reproduce at the recorded seed and window, and the medians of the
// two acceptance run sets (read by people, not by the program).
type baseline struct {
	Recorded struct {
		Seed       int64 `json:"seed"`
		Seconds    int   `json:"seconds"`
		Signatures int   `json:"adversary.signatures"`
		Histories  int   `json:"bmc.histories"`
	} `json:"recorded_counts"`
}

type stateCounts struct{ Signatures, Histories int }

// recordedCounts returns the baseline's exact counts when cfg is the
// configuration they were recorded at.
func recordedCounts(cfg runConfig) (stateCounts, bool) {
	var b baseline
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return stateCounts{}, false
	}
	r := b.Recorded
	if cfg.quick || cfg.seed != r.Seed || cfg.window != time.Duration(r.Seconds)*time.Second || r.Signatures == 0 {
		return stateCounts{}, false
	}
	return stateCounts{r.Signatures, r.Histories}, true
}

// run executes one workload once: its end-to-end metrics with tracing off,
// or — traced — every per-layer metric.
func run(cfg runConfig) (*runResult, error) {
	digest, err := inputDigest(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.window.Seconds(),
		Digest: digest, Correct: true, Valid: true, Counts: map[string]int{}, Metrics: map[string]metricValue{}}
	defs := endToEndDefs
	if cfg.traced {
		res.Trace = 1
		defs = perLayerDefs
	}
	var values map[string]metricValue
	switch {
	case cfg.workload == wlVerifyVirtual && cfg.traced:
		values, err = tracedVerify(cfg, res)
	case cfg.workload == wlVerifyVirtual:
		values, err = untracedVerify(cfg, res)
	case cfg.traced:
		values, err = tracedLive(cfg, res)
	default:
		values, err = untracedLive(cfg, res)
	}
	if err != nil {
		return nil, err
	}
	for _, def := range defs {
		v, ok := values[def.Name]
		if !ok {
			return nil, fmt.Errorf("bench: %s produced no value for %s", cfg.workload, def.Name)
		}
		v.Unit = def.Unit
		res.Metrics[def.Name] = v
	}
	return res, nil
}

// account folds one live pass's verdicts into the result.
func (r *runResult) account(cfg runConfig, p *passResult) {
	r.Attempted += p.log.issued
	r.Counts["completed"] += len(p.samples)
	r.Counts["issued"] += p.log.issued
	r.Counts["retried_after_crash"] += len(p.log.crashed)
	r.Counts["refused"] += p.log.refused
	r.Counts["passes_discarded"] += len(p.discarded)
	r.Discarded = append(r.Discarded, p.discarded...)
	failed := p.log.errs + p.log.refused + p.badOps
	if p.checkErr != nil {
		r.Correct = false
		r.Problems = append(r.Problems, "check: "+p.checkErr.Error())
		if p.badOps == 0 {
			failed += len(p.samples)
		}
	}
	if p.log.errs > 0 {
		r.Correct = false
		r.Problems = append(r.Problems, fmt.Sprintf("%d calls failed, first: %v", p.log.errs, p.log.firstErr))
	}
	if why := p.validity(cfg); len(why) > 0 {
		r.Valid = false
		r.Problems = append(r.Problems, why...)
	}
	r.Failed += failed
}

func untracedLive(cfg runConfig, res *runResult) (map[string]metricValue, error) {
	p, err := livePass(cfg, cfg.window, false)
	if err != nil {
		return nil, err
	}
	res.account(cfg, p)
	return p.endToEnd(cfg.workload != wlQuorumCrash), nil
}

// tracedLive spends half the window untraced and half traced, so the
// tracing overhead is a ratio of two passes of one process, then runs the
// layer probes.
func tracedLive(cfg runConfig, res *runResult) (map[string]metricValue, error) {
	half := cfg.window / 2
	plain, err := livePass(cfg, half, false)
	if err != nil {
		return nil, err
	}
	res.account(cfg, plain)
	traced, err := livePass(cfg, half, true)
	if err != nil {
		return nil, err
	}
	res.account(cfg, traced)

	out := layerValues{}
	traced.layers(out)
	n := len(traced.samples)
	out.set("obs.trace_ops_ratio", traced.opsPerS()/plain.opsPerS(), n)
	out.set("obs.trace_cpu_ratio", traced.cpuPerOpUS()/plain.cpuPerOpUS(), n)
	out.set("obs.trace_allocs_per_op", traced.allocsPerOp()/plain.allocsPerOp(), n)
	// CPU per operation and the cost of the run's own check, from the
	// untraced half: reported, not bounded — on a timer-bound workload the
	// process is 94 % idle and its CPU time is mostly wake-up cost, which
	// moves by a third with the host; the check is CPU-bound and moves
	// with it too.
	out.set("proc.cpu_us_per_op", plain.cpuPerOpUS(), len(plain.samples))
	out.set("lincheck.check_s", plain.checkS, 1)
	if err := runProbes(cfg, out); err != nil {
		return nil, err
	}
	out.set("proc.peak_rss_mb", peakRSSMB(), 1)
	if cfg.traceOut != "" {
		if err := writeTrace(cfg.traceOut, traced.spanTrees()); err != nil {
			return nil, fmt.Errorf("writing the span file: %w", err)
		}
	}
	return out, nil
}

func untracedVerify(cfg runConfig, res *runResult) (map[string]metricValue, error) {
	v, err := verifyPassRun(cfg)
	if err != nil {
		return nil, err
	}
	res.accountVerify(cfg, v)
	return v.endToEnd(), nil
}

func (r *runResult) accountVerify(cfg runConfig, v *verifyPass) {
	failed, problems := v.gate(cfg)
	r.Attempted += v.ops() + v.mutants
	r.Counts["schedules"] += v.fuzz.Schedules
	r.Counts["bmc_runs"] += v.sweep.Runs
	r.Counts["adversary.signatures"] = v.fuzz.Signatures
	r.Counts["bmc.histories"] = v.sweep.Histories
	r.Counts["mutants_killed"] = v.killed
	r.Failed += failed
	if len(problems) > 0 {
		r.Correct = false
		r.Problems = append(r.Problems, problems...)
	}
}

// tracedVerify reports the layers as verify-virtual sees them: no serving
// layer and no rtnet (those values are zero), the same handlers under
// sim.Engine with and without an obs.Collector, and the attribution terms
// in virtual time, where they must equal the formulas exactly.
func tracedVerify(cfg runConfig, res *runResult) (map[string]metricValue, error) {
	half := cfg
	half.window = cfg.window / 2
	v, err := verifyPassRun(half)
	if err != nil {
		return nil, err
	}
	res.accountVerify(half, v)

	out := layerValues{}
	opsPerProc := scaleProbes(cfg.quick).virtualOps
	// The first run fills the harness's engine pool; the pair after it
	// differs by the tracer alone.
	if _, _, _, err := virtualRun(cfg, harness.AlgCore, "queue", mixWriteHeavy, opsPerProc, nil); err != nil {
		return nil, err
	}
	plain, p0, p1, err := virtualRun(cfg, harness.AlgCore, "queue", mixWriteHeavy, opsPerProc, nil)
	if err != nil {
		return nil, err
	}
	// One collector sized to retain every tree, so each operation can be
	// attributed after the run.
	coll := obs.NewCollector(opsPerProc * modelN)
	traced, t0, t1, err := virtualRun(cfg, harness.AlgCore, "queue", mixWriteHeavy, opsPerProc, coll)
	if err != nil {
		return nil, err
	}
	n := len(traced.Trace.Ops)
	ops := float64(n)
	wall := func(a, b usage) float64 { return b.at.Sub(a.at).Seconds() }
	out.set("obs.trace_ops_ratio", wall(p0, p1)/wall(t0, t1)*ops/float64(len(plain.Trace.Ops)), n)
	out.set("obs.trace_cpu_ratio", float64(t1.cpu-t0.cpu)/max(float64(p1.cpu-p0.cpu), 1), n)
	out.set("obs.trace_allocs_per_op", float64(t1.mallocs-t0.mallocs)/max(float64(p1.mallocs-p0.mallocs), 1), n)
	out.set("obs.dropped_trees", float64(coll.Dropped()), n)
	out.set("proc.gc_pause_total_ms", float64(t1.gcPause-p0.gcPause)/float64(time.Millisecond), n)

	p := modelParams(modelN)
	attr := obs.AttrParams{D: int64(p.D), U: int64(p.U), Epsilon: int64(p.Epsilon), X: int64(p.X)}
	classes := harness.ClassesFor(mustType("queue"))
	sums, counts := map[string]obs.Attribution{}, map[string]float64{}
	for _, op := range traced.Trace.Ops {
		class := classes[op.Op].String()
		a, ok := coll.Attribute(op.SeqID, class, int64(op.InvokeTime), attr)
		if !ok {
			continue
		}
		if a.Sum() != int64(op.Latency()) || int64(op.Latency()) > int64(serve.FormulaTicks(p, classes[op.Op])) {
			res.Correct = false
			res.Problems = append(res.Problems, fmt.Sprintf("virtual-time %s took %d ticks, attributed %d, bound %d",
				op.Op, op.Latency(), a.Sum(), serve.FormulaTicks(p, classes[op.Op])))
		}
		sum := sums[class]
		for term, ticks := range a {
			sum[term] += ticks
		}
		sums[class] = sum
		counts[class]++
	}
	for class, sum := range sums {
		for term, ticks := range sum {
			out.set(termMetric(class, obs.Term(term).String()), float64(ticks)/counts[class], int(counts[class]))
		}
	}
	out.set("span.cluster_service_self_us", wall(t0, t1)*1e6/ops, n)
	out.set("gen.offered_per_s", float64(v.ops())/v.use1.at.Sub(v.use0.at).Seconds(), v.ops())

	if err := runProbes(cfg, out); err != nil {
		return nil, err
	}
	// The workload's own rates supersede the probes' fixed-budget ones.
	out.set("adversary.sched_per_s", float64(v.fuzz.Schedules)/v.fuzzS, v.fuzz.Schedules)
	out.set("bmc.runs_per_s", float64(v.sweep.Runs)/v.sweepS, v.sweep.Runs)
	out.set("proc.cpu_us_per_op", v.cpuPerOpUS(), v.ops())
	out.set("lincheck.check_s", v.checkS, 1)
	out.set("proc.peak_rss_mb", peakRSSMB(), 1)
	// Nothing is served and no rtnet cluster runs in this workload: the
	// metrics of those layers' live passes read zero.
	for _, def := range perLayerDefs {
		if _, measured := out[def.Name]; !measured {
			out.set(def.Name, 0, 0)
		}
	}
	if cfg.traceOut != "" {
		if err := writeTrace(cfg.traceOut, coll.Trees()); err != nil {
			return nil, fmt.Errorf("writing the span file: %w", err)
		}
	}
	return out, nil
}
