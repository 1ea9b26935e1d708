package main

import (
	"fmt"
	"time"

	"lintime/internal/adt"
	"lintime/internal/adversary"
	"lintime/internal/bmc"
	"lintime/internal/harness"
	"lintime/internal/serve"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// verify-virtual: the virtual-time verification pipeline. Its work is a
// pure function of (seed, seconds) — a fuzz campaign, one exhaustive
// model-checking sweep, and the mutant kill matrix as the correctness gate
// — sized to take about --seconds on the 2-core reference machine. Nothing
// in it waits on a wall clock.

// verifySizing is the amount of work at a given window.
type verifySizing struct {
	warmBudget int // the set-up campaign that fills the engine pools
	fuzzBudget int
	bmcN       int // processes of the exhaustive sweep
	bmcOps     int
	// killBudget is what the control row of the kill matrix runs in full
	// (mutants die within the first batches): large enough that check_s is
	// a third of a second, not scheduler noise.
	killBudget int
}

func sizeVerify(cfg runConfig) verifySizing {
	if cfg.quick {
		return verifySizing{warmBudget: 64, fuzzBudget: 256, bmcN: 2, bmcOps: 2, killBudget: 128}
	}
	secs := int(cfg.window / time.Second)
	z := verifySizing{warmBudget: 512, fuzzBudget: fuzzPerSecond * secs, bmcN: 2, bmcOps: 3, killBudget: 4096}
	if secs >= 10 {
		// n=3 is the smallest space on which delay vectors, offsets and
		// plans all interact; it costs about five seconds.
		z.bmcN = 3
	}
	return z
}

func bmcConfig(dt spec.DataType, n, maxOps, parallel int, strong bool) bmc.Config {
	return bmc.Config{Params: simtime.DefaultParams(n), DT: dt, Target: adversary.Target{Algorithm: harness.AlgCore},
		MaxOps: maxOps, Strong: strong, Parallel: parallel}
}

type verifyPass struct {
	setups     []float64
	use0, use1 usage
	fuzz       *adversary.Report
	fuzzS      float64
	sweep      *bmc.Report
	sweepS     float64
	ratios     []tickRatio
	killed     int
	mutants    int
	controlOK  bool
	checkS     float64
	violations int
}

// fuzzOptions is a campaign against Algorithm 1 at the default parameters
// for n=5.
func fuzzOptions(dt spec.DataType, seed int64, budget, parallel int) adversary.Options {
	return adversary.Options{Params: simtime.DefaultParams(modelN), DT: dt,
		Target: adversary.Target{Algorithm: harness.AlgCore}, Seed: seed, Budget: budget, Parallel: parallel}
}

// cpuPerOpUS is getrusage CPU time per verified execution.
func (v *verifyPass) cpuPerOpUS() float64 {
	return float64(v.use1.cpu-v.use0.cpu) / 1e3 / float64(v.ops())
}

func (v *verifyPass) ops() int { return v.fuzz.Schedules + v.sweep.Runs }

func verifyPassRun(cfg runConfig) (*verifyPass, error) {
	v := &verifyPass{}
	z := sizeVerify(cfg)
	g := gomaxprocs()
	var (
		dt  spec.DataType
		err error
	)
	// Set-up is what a campaign pays before its first counted schedule:
	// look the type up, classify it, enumerate the model-checking space, and
	// fill the engine pools with a short campaign. It is 70 ms of CPU-bound
	// work, which host contention stretches where it cannot stretch the
	// live workloads' timer waits, so its median takes twice the set-ups.
	for i := 0; i < 2*cfg.setups-1; i++ {
		begin := time.Now()
		if dt, err = adt.Lookup("queue"); err != nil {
			return nil, err
		}
		harness.ClassesFor(dt)
		if _, err = bmc.NewSpace(bmcConfig(dt, z.bmcN, z.bmcOps, g, true)); err != nil {
			return nil, err
		}
		if _, err = adversary.Fuzz(fuzzOptions(dt, harness.DeriveSeed(cfg.seed, "bench/verify/warm"), z.warmBudget, g)); err != nil {
			return nil, fmt.Errorf("warm-up campaign: %w", err)
		}
		v.setups = append(v.setups, time.Since(begin).Seconds())
	}

	v.use0 = readUsage()
	begin := time.Now()
	v.fuzz, err = adversary.Fuzz(fuzzOptions(dt, fuzzSeed(cfg.seed), z.fuzzBudget, g))
	if err != nil {
		return nil, fmt.Errorf("fuzz: %w", err)
	}
	v.fuzzS = time.Since(begin).Seconds()

	begin = time.Now()
	if v.sweep, err = bmc.Verify(bmcConfig(dt, z.bmcN, z.bmcOps, g, true)); err != nil {
		return nil, fmt.Errorf("bmc: %w", err)
	}
	v.sweepS = time.Since(begin).Seconds()

	v.use1 = readUsage()
	v.violations += len(v.fuzz.Violations) + v.sweep.ViolationsTotal

	// The designed latencies, tick for tick: the alg1-closed mix in virtual
	// time under the live workloads' model parameters.
	p := modelParams(modelN)
	res, err := harness.Run(
		harness.Config{Params: p, TypeName: "queue", Algorithm: harness.AlgCore, Network: harness.NetRandom,
			Offsets: harness.OffZero, Seed: harness.DeriveSeed(cfg.seed, "bench/verify/net"), Trace: sim.TraceOps},
		harness.Workload{OpsPerProc: 400, MaxGap: p.D / 2, Seed: harness.DeriveSeed(cfg.seed, "bench/verify/ops"), Mix: mixWriteHeavy})
	if err != nil {
		return nil, fmt.Errorf("virtual run: %w", err)
	}
	classes := harness.ClassesFor(dt)
	for _, op := range res.Trace.Ops {
		v.ratios = append(v.ratios, tickRatio{int32(op.Latency()), int32(serve.FormulaTicks(p, classes[op.Op]))})
	}

	begin = time.Now()
	entries, err := adversary.KillMatrix(fuzzOptions(dt, fuzzSeed(cfg.seed), z.killBudget, g))
	if err != nil {
		return nil, fmt.Errorf("kill matrix: %w", err)
	}
	v.checkS = time.Since(begin).Seconds()
	for _, e := range entries {
		if e.Mutant == "correct" {
			v.controlOK = !e.Killed
			continue
		}
		v.mutants++
		if e.Killed {
			v.killed++
		}
	}
	return v, nil
}

func (v *verifyPass) endToEnd() map[string]metricValue {
	n := v.ops()
	wall := v.use1.at.Sub(v.use0.at).Seconds()
	cpu := (v.use1.cpu - v.use0.cpu).Seconds()
	return map[string]metricValue{
		"setup_s":         {Value: median(v.setups), N: len(v.setups)},
		"ops_per_s":       {Value: float64(n) / wall, N: n},
		"efficiency":      {Value: cpu / (wall * float64(gomaxprocs())), N: n},
		"allocs_per_op":   {Value: float64(v.use1.mallocs-v.use0.mallocs) / float64(n), N: n},
		"bound_ratio_p50": {Value: ratioQuantile(v.ratios, 0.50), N: len(v.ratios)},
		"bound_ratio_p99": {Value: ratioQuantile(v.ratios, 0.99), N: len(v.ratios)},
		// In virtual time the latency a client observes is the virtual one:
		// the same run's service latencies, at the live workloads' tick.
		"e2e_p50_us": {Value: tickQuantile(v.ratios, 0.50) * float64(alg1Tick) / 1e3, N: len(v.ratios)},
		"e2e_p99_us": {Value: tickQuantile(v.ratios, 0.99) * float64(alg1Tick) / 1e3, N: len(v.ratios)},
	}
}

// gate is the correctness verdict: no violating schedule, a clean sweep,
// every mutant killed and the control alive, and — at the recorded seed
// and window — the exact state counts of the baseline.
func (v *verifyPass) gate(cfg runConfig) (failed int, problems []string) {
	if v.violations > 0 {
		failed += v.violations
		problems = append(problems, fmt.Sprintf("%d violating schedules", v.violations))
	}
	if !v.sweep.OK {
		problems = append(problems, "bmc sweep is not clean")
	}
	if v.killed != v.mutants || !v.controlOK {
		failed += v.mutants - v.killed
		problems = append(problems, fmt.Sprintf("kill matrix: %d of %d mutants killed, control alive: %v", v.killed, v.mutants, v.controlOK))
	}
	if want, ok := recordedCounts(cfg); ok {
		if v.fuzz.Signatures != want.Signatures || v.sweep.Histories != want.Histories {
			failed++
			problems = append(problems, fmt.Sprintf("state counts drifted: %d signatures, %d histories; recorded %d, %d",
				v.fuzz.Signatures, v.sweep.Histories, want.Signatures, want.Histories))
		}
	}
	return failed, problems
}
