package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"sync"
	"testing"
	"time"

	"lintime/internal/rtnet"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesProgram: every workload and metric BENCHMARK.json
// names is one the program emits, with the same unit, direction and bound,
// and the other way round.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(keys))
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range b.Workloads {
		if def := workloadDefs[i]; w.Name != def.Name || w.Why != def.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, def.Name, def.Why)
		}
		if len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q: name or reason outside the contract's limits", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEndDefs) || len(b.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || (better != "higher" && better != "lower") {
			t.Errorf("metric %q (%q, %q) breaks the naming contract", name, unit, better)
		}
		if seen[name] {
			t.Errorf("metric %q is listed twice", name)
		}
		seen[name] = true
	}
	setup := false
	for i, m := range b.EndToEnd {
		def := endToEndDefs[i]
		if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better || m.Bound != def.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, def)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		check(m.Name, m.Unit, m.Better)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range b.PerLayer {
		def := perLayerDefs[i]
		if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, def)
		}
		check(m.Name, m.Unit, m.Better)
	}
}

func metricNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}

// quickRun runs one workload on the -quick path and returns what is wrong
// with it: it must be correct and emit exactly the metrics its mode
// promises.
func quickRun(workload string, traced bool) (problems []string) {
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf("%s traced=%v: ", workload, traced)+fmt.Sprintf(format, args...))
	}
	res, err := run(newRunConfig(workload, 1, 1, traced, true))
	if err != nil {
		bad("%v", err)
		return problems
	}
	if !res.ok() || res.Attempted < 1 || res.Failed != 0 {
		bad("correct=%v valid=%v attempted=%d failed=%d problems=%v", res.Correct, res.Valid, res.Attempted, res.Failed, res.Problems)
	}
	want := metricNames(endToEndDefs)
	if traced {
		want = metricNames(perLayerDefs)
	}
	got := make([]string, 0, len(res.Metrics))
	for name, v := range res.Metrics {
		got = append(got, name)
		if v.Unit == "" {
			bad("%s has no unit", name)
		}
		if !traced && v.Value <= 0 {
			bad("end-to-end metric %s = %v, want a positive number", name, v.Value)
		}
	}
	sort.Strings(got)
	if len(got) != len(want) {
		bad("%d metrics emitted, want %d", len(got), len(want))
		return problems
	}
	for i := range got {
		if got[i] != want[i] {
			bad("emitted %q where %q was expected", got[i], want[i])
		}
	}
	return problems
}

// TestQuickRunsEmitEveryMetric drives all four workloads, untraced and
// traced, for well under a second each. The live workloads wait on timers
// and run side by side; the CPU-bound one runs after them so it cannot
// stall their clusters.
func TestQuickRunsEmitEveryMetric(t *testing.T) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var problems []string
	for _, w := range []string{wlAlg1Closed, wlAlg1OpenTCP, wlQuorumCrash} {
		for _, traced := range []bool{false, true} {
			wg.Add(1)
			go func(w string, traced bool) {
				defer wg.Done()
				found := quickRun(w, traced)
				mu.Lock()
				problems = append(problems, found...)
				mu.Unlock()
			}(w, traced)
		}
	}
	wg.Wait()
	problems = append(problems, quickRun(wlVerifyVirtual, false)...)
	problems = append(problems, quickRun(wlVerifyVirtual, true)...)
	for _, p := range problems {
		t.Error(p)
	}
}

// TestInputsAreAFunctionOfTheSeed: the same seed generates byte-identical
// inputs, another seed different ones.
func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloadDefs {
		a, err := inputDigest(w.Name, 1)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := inputDigest(w.Name, 1)
		other, _ := inputDigest(w.Name, 2)
		if a != again {
			t.Errorf("%s: seed 1 gave digests %s and %s", w.Name, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", w.Name, a)
		}
	}
}

// TestOpenLoopTimesFromDueTime: against a target that serves half the
// offered rate the open loop must keep offering — the same arrivals are
// issued — and show the backlog as latency from the due time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const rate, span = 1000.0, 300 * time.Millisecond
	arrivals := poissonArrivals(1, arrivalsID, rate, span)
	drive := func(service time.Duration) (issued int, p99US float64) {
		var busy sync.Mutex // the stub serves one call at a time
		tgt := target{
			shardOf: func(string) int { return 0 },
			boundOf: func(rtnet.Response) int32 { return 1 },
			call: func(int, request) (rtnet.Response, error) {
				busy.Lock()
				defer busy.Unlock()
				time.Sleep(service)
				return rtnet.Response{Respond: 1}, nil
			},
		}
		streams, err := clientStreams(wlAlg1OpenTCP, 1)
		if err != nil {
			t.Fatal(err)
		}
		log := &liveLog{}
		runOpen(newWindow(0, span), arrivals, streams[0], 1<<20, tgt, log)
		if log.refused != 0 || log.errs != 0 || len(log.samples) != len(arrivals) {
			t.Fatalf("service %v: %d of %d arrivals answered, %d refused, %d errors",
				service, len(log.samples), len(arrivals), log.refused, log.errs)
		}
		return log.issued, quantile(mapSamples(log.samples, clientUS), 0.99)
	}
	fastIssued, fastP99 := drive(0)
	slowIssued, slowP99 := drive(2 * time.Millisecond) // 500 ops/s against 1000 offered
	if slowIssued != fastIssued || slowIssued != len(arrivals) {
		t.Errorf("offered load changed with the target's speed: %d arrivals, %d issued to the fast target, %d to the slow one",
			len(arrivals), fastIssued, slowIssued)
	}
	// Half the arrivals of a 300ms schedule are still queued when it ends:
	// the last ones wait about 300ms.
	if slowP99 < 100e3 || slowP99 < 10*fastP99 {
		t.Errorf("e2e p99 is %.0fus against the slow target and %.0fus against the fast one: latency is not timed from the due time",
			slowP99, fastP99)
	}
}

// TestOnlyTheHostExcusesAFailedCheck: a pass whose check failed is measured
// again when the clusters saw a delivery at or beyond d — the host broke
// Algorithm 1's premise — and stands as a failure otherwise.
func TestOnlyTheHostExcusesAFailedCheck(t *testing.T) {
	failed := func(workload string, maxDelay int64) string {
		p := &passResult{log: &liveLog{}, checkErr: fmt.Errorf("not linearizable"), badOps: 7, maxDelay: maxDelay}
		return p.disturbed(runConfig{workload: workload})
	}
	if why := failed(wlAlg1Closed, modelD); why == "" {
		t.Error("a failed check after a delivery d ticks long was not put down to the host")
	}
	if why := failed(wlAlg1Closed, modelD-1); why != "" {
		t.Errorf("a failed check with every delivery on time was excused: %s", why)
	}
	if why := failed(wlQuorumCrash, 4*modelD); why != "" {
		t.Errorf("the quorum register, which assumes no delay bound, was excused: %s", why)
	}
	clean := &passResult{log: &liveLog{}, maxDelay: 4 * modelD}
	if why := clean.disturbed(runConfig{workload: wlAlg1Closed}); why != "" {
		t.Errorf("a pass that passed its check was discarded: %s", why)
	}
}
