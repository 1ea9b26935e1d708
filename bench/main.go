// Command bench is the repository's benchmark: four workloads across both
// clocks (three on the real-time substrate, one in virtual time), measured
// from outside through the public functions of each layer.
//
//	bash bench/run.sh --workload alg1-closed --seed 1 --seconds 20 --trace 0
//
// runs one workload once and prints, as the last line of standard output,
// one JSON object {correct, attempted, failed, metrics}: the end-to-end
// metrics with --trace 0, every per-layer metric with --trace 1. Without
// --workload it runs all four workloads untraced (-runs times, seeds
// seed, seed+1, …), then one traced pass of alg1-closed, prints every
// metric by name and writes the result file and the span file under
// bench/out/. README.md has the workloads, the metrics and the reasons.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// resultFile is what a full run writes and bench/cmp reads.
type resultFile struct {
	Env  envStamp     `json:"env"`
	Seed int64        `json:"seed"`
	Runs []*runResult `json:"runs"`
	// Bounds repeats each end-to-end metric's direction and bound, so a
	// comparison needs nothing but two result files.
	Bounds map[string]boundDef `json:"bounds"`
}

type boundDef struct {
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func main() {
	workload := flag.String("workload", "", "run only this workload, once (alg1-closed, alg1-open-tcp, quorum-crash, verify-virtual)")
	seed := flag.Int64("seed", 1, "seed of the input generator and the clusters' delay streams")
	seconds := flag.Int("seconds", 20, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics with tracing off")
	quick := flag.Bool("quick", false, "smoke path: sub-second windows at a coarse tick; the numbers mean nothing")
	runs := flag.Int("runs", 1, "full mode: untraced runs per workload, at seeds seed, seed+1, …")
	out := flag.String("out", "bench/out/run.json", "full mode: result file")
	traceOut := flag.String("trace-out", "bench/out/trace.json", "span file of a traced run (Chrome trace format)")
	result := flag.String("result", "", "single run: also write the full result to this file (how the full mode collects its child runs)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *runs < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	// One process hosts cluster and generator on at most four cores.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	ok := false
	if *workload != "" {
		cfg := newRunConfig(*workload, *seed, *seconds, *trace == 1, *quick)
		cfg.traceOut = *traceOut
		ok, err = single(cfg, *result)
	} else {
		ok, err = full(*seed, *seconds, *runs, *quick, *out, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func newRunConfig(workload string, seed int64, seconds int, traced, quick bool) runConfig {
	cfg := runConfig{workload: workload, seed: seed, traced: traced, quick: quick,
		window: time.Duration(seconds) * time.Second, warm: 2 * time.Second, setups: 5}
	if quick {
		cfg.window, cfg.warm, cfg.setups = 400*time.Millisecond, 100*time.Millisecond, 1
	}
	return cfg
}

func knownWorkload(name string) bool {
	for _, w := range workloadDefs {
		if w.Name == name {
			return true
		}
	}
	return false
}

// single is the driver's entry: one workload, one run, the result as the
// last line of standard output.
func single(cfg runConfig, resultPath string) (bool, error) {
	if !knownWorkload(cfg.workload) {
		return false, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res, err := run(cfg)
	if err != nil {
		return false, err
	}
	if resultPath != "" {
		// A child of the full mode: the parent prints the environment once
		// and reads the result from the file.
		printRun(res)
		b, err := json.Marshal(res)
		if err != nil {
			return false, err
		}
		return res.ok(), os.WriteFile(resultPath, b, 0o644)
	}
	printEnv(stampEnv(), cfg.seed)
	printRun(res)
	// The driver's line: exactly these keys, value and unit per metric.
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{res.ok(), res.Attempted, res.Failed, map[string]driverMetric{}}
	for name, v := range res.Metrics {
		line.Metrics[name] = driverMetric{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Println(string(b))
	// Whoever keeps only the tail of standard error still learns why.
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "bench: problem:", p)
	}
	return res.ok(), nil
}

// full runs every workload untraced, then the traced pass, and writes the
// result file.
func full(seed int64, seconds, runs int, quick bool, out, traceOut string) (bool, error) {
	file := &resultFile{Env: stampEnv(), Seed: seed, Bounds: map[string]boundDef{}}
	for _, def := range endToEndDefs {
		file.Bounds[def.Name] = boundDef{Better: def.Better, Bound: def.Bound}
	}
	printEnv(file.Env, seed)
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return false, err
	}
	ok := true
	// Every run is a fresh process, exactly as the driver runs it: heap,
	// pools and scheduler state left by one workload cost the next one up
	// to a fifth more CPU per operation.
	add := func(cfg runConfig) error {
		res, err := runChild(cfg, out+".part")
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.workload, err)
		}
		file.Runs = append(file.Runs, res)
		ok = ok && res.ok()
		return nil
	}
	for i := 0; i < runs; i++ {
		for _, w := range workloadDefs {
			if err := add(newRunConfig(w.Name, seed+int64(i), seconds, false, quick)); err != nil {
				return false, err
			}
		}
	}
	// The traced pass: alg1-closed for half the window untraced and half
	// traced. End-to-end metrics always come from the runs above.
	traced := newRunConfig(wlAlg1Closed, seed, seconds, true, quick)
	traced.traceOut = traceOut
	if err := add(traced); err != nil {
		return false, err
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("result file %s, span file %s\n", out, traceOut)
	return ok, nil
}

// runChild runs one workload in a child process of this program and reads
// its result back through resultPath.
func runChild(cfg runConfig, resultPath string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.traced {
		trace = "1"
	}
	args := []string{"-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(max(int(cfg.window/time.Second), 1)), "-trace", trace,
		"-trace-out", cfg.traceOut, "-result", resultPath}
	if cfg.quick {
		args = append(args, "-quick")
	}
	defer os.Remove(resultPath)
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run() // exit status 1 with a result file is a failed gate, reported below
	b, err := os.ReadFile(resultPath)
	if err != nil {
		return nil, fmt.Errorf("child run left no result (%v)", runErr)
	}
	var res runResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

func printEnv(env envStamp, seed int64) {
	fmt.Printf("env nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s seed=%d\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, env.CPUModel, env.Commit, seed)
}

// printRun prints every metric of a run by name, with its unit, its sample
// count and — beside a median of sub-windows — the whole-window value.
func printRun(r *runResult) {
	kind := "end-to-end, tracing off"
	if r.Trace == 1 {
		kind = "per-layer, traced"
	}
	fmt.Printf("\n%s seed=%d seconds=%g (%s) inputs=%s\n", r.Workload, r.Seed, r.Seconds, kind, r.Digest)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		line := fmt.Sprintf("  %-32s %14.4f %-6s n=%d", name, v.Value, v.Unit, v.N)
		if v.Whole != nil {
			line += fmt.Sprintf("  (median of %d sub-windows; whole window %.4f)", subWindows, *v.Whole)
		}
		fmt.Println(line)
	}
	fmt.Printf("  correct=%v valid=%v attempted=%d failed=%d", r.Correct, r.Valid, r.Attempted, r.Failed)
	counts := make([]string, 0, len(r.Counts))
	for name := range r.Counts {
		counts = append(counts, name)
	}
	sort.Strings(counts)
	for _, name := range counts {
		fmt.Printf(" %s=%d", name, r.Counts[name])
	}
	fmt.Println()
	for _, p := range r.Problems {
		fmt.Printf("  problem: %s\n", p)
	}
	for _, d := range r.Discarded {
		fmt.Printf("  discarded a pass and measured again: %s\n", d)
	}
}
