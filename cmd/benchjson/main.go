// benchjson folds `go test -bench` output into a JSON ledger with
// before/after sides and computed deltas, so benchmark evidence lands in
// the repository in a stable, diffable form (BENCH_engine.json).
//
// Usage:
//
//	go test -bench . -benchmem ./internal/sim/ | benchjson -set before -o BENCH_engine.json
//	... apply the optimization ...
//	go test -bench . -benchmem ./internal/sim/ | benchjson -set after  -o BENCH_engine.json
//
// Each invocation reads benchmark lines from stdin, merges them into the
// named side of the ledger (creating the file if needed), recomputes the
// percentage delta for every metric present on both sides, and rewrites
// the file with sorted keys. Non-benchmark lines are ignored, so piping
// the whole `go test` output is fine.
//
// Two further modes:
//
//	go test -bench . -benchmem ./internal/sim/ | benchjson -guard -o BENCH_engine.json
//
// compares stdin results against the ledger's after side instead of
// merging: the run fails if any benchmark's ns/op exceeds the recorded
// value by more than -pct percent, or any -exact metric (default
// allocs/op) increases at all — the CI guard keeping instrumentation off
// the hot path.
//
//	benchjson -snapshots load.jsonl -set after -o BENCH_serve_obs.json
//
// folds the final snapshot of an obs JSONL file (`lintime load
// -obs-out`) into the ledger: counters and gauges as single-value
// metrics, histograms as their summary fields.
//
//	benchjson -serve BENCH_serve.json -min-ops 870
//
// validates a load summary instead: every class report — aggregate and,
// for sharded runs, every shard's own table — must have its p99 within
// formula + jitter budget, a sharded summary must carry one report per
// declared shard, and (with -min-ops) the measured throughput must be at
// least the given ops/sec floor. The CI gate over `lintime load -o
// BENCH_serve.json`. Passing a comma-separated list of summaries
// validates each and prints a side-by-side comparison table — the
// intended way to diff codec or pipeline variants:
//
//	benchjson -serve BENCH_json.json,BENCH_binary.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"lintime/internal/obs"
	"lintime/internal/serve"
)

// Ledger is the on-disk shape: benchmark → metric → value, per side,
// plus percentage deltas ((after-before)/before·100, one decimal).
type Ledger struct {
	Before map[string]map[string]float64 `json:"before"`
	After  map[string]map[string]float64 `json:"after"`
	Delta  map[string]map[string]float64 `json:"delta_pct"`
}

// benchLine matches one result line of `go test -bench`:
//
//	BenchmarkEngineEvents-8   532   2223105 ns/op   3967424 B/op   16067 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parse extracts (benchmark name, metric → value) from one line, or
// ok=false for non-benchmark lines.
func parse(line string) (string, map[string]float64, bool) {
	m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
	if m == nil {
		return "", nil, false
	}
	name := strings.TrimPrefix(m[1], "Benchmark")
	metrics := map[string]float64{}
	fields := strings.Fields(m[2])
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		metrics[fields[i+1]] = v
	}
	if len(metrics) == 0 {
		return "", nil, false
	}
	return name, metrics, true
}

func load(path string) (*Ledger, error) {
	led := &Ledger{}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return led, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, led); err != nil {
		return nil, fmt.Errorf("benchjson: %s is not a ledger: %w", path, err)
	}
	return led, nil
}

// recompute rebuilds Delta from the two sides. Higher-is-better custom
// metrics (anything not ending in /op) still read naturally: a positive
// delta means the after side is larger.
func (l *Ledger) recompute() {
	l.Delta = map[string]map[string]float64{}
	for name, before := range l.Before {
		after, ok := l.After[name]
		if !ok {
			continue
		}
		for metric, b := range before {
			a, ok := after[metric]
			if !ok || b == 0 {
				continue
			}
			if l.Delta[name] == nil {
				l.Delta[name] = map[string]float64{}
			}
			l.Delta[name][metric] = float64(int((a-b)/b*1000+sign(a-b)*0.5)) / 10
		}
	}
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// guardStdin compares stdin benchmark lines against the ledger's after
// side: ns/op may not regress by more than pct percent, and the exact
// metrics may not increase at all. Returns the number of violations.
func guardStdin(led *Ledger, pct float64, exact map[string]bool) int {
	violations, checked := 0, 0
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		name, metrics, ok := parse(sc.Text())
		if !ok {
			continue
		}
		base, ok := led.After[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: guard: %s not in ledger, skipping\n", name)
			continue
		}
		checked++
		for metric, have := range metrics {
			want, ok := base[metric]
			if !ok {
				continue
			}
			switch {
			case exact[metric]:
				if have > want {
					fmt.Fprintf(os.Stderr, "benchjson: guard FAIL %s %s: %v > %v (must not increase)\n",
						name, metric, have, want)
					violations++
				} else {
					fmt.Fprintf(os.Stderr, "benchjson: guard ok   %s %s: %v <= %v\n", name, metric, have, want)
				}
			case metric == "ns/op":
				limit := want * (1 + pct/100)
				if have > limit {
					fmt.Fprintf(os.Stderr, "benchjson: guard FAIL %s ns/op: %.0f > %.0f (ledger %.0f +%.0f%%)\n",
						name, have, limit, want, pct)
					violations++
				} else {
					fmt.Fprintf(os.Stderr, "benchjson: guard ok   %s ns/op: %.0f <= %.0f (ledger %.0f +%.0f%%)\n",
						name, have, limit, want, pct)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if checked == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: guard: no benchmark lines matched the ledger")
		os.Exit(1)
	}
	return violations
}

// guardServe validates a load summary (BENCH_serve.json): every class
// report — the aggregate table and, in sharded runs, every shard's own
// table — must be within its latency budget (p99 ≤ formula + jitter
// budget), and with minOps > 0 the measured throughput must clear the
// floor. Returns the number of violations.
func guardServe(led *serve.Summary, minOps float64) int {
	violations := 0
	check := func(scope, class string, rep serve.ClassReport) {
		if rep.WithinBudget {
			fmt.Fprintf(os.Stderr, "benchjson: serve ok   %s %s: p99 %d <= %d+%d\n",
				scope, class, rep.Latency.P99, rep.FormulaTicks, rep.BudgetTicks)
			return
		}
		fmt.Fprintf(os.Stderr, "benchjson: serve FAIL %s %s: p99 %d > formula %d + budget %d\n",
			scope, class, rep.Latency.P99, rep.FormulaTicks, rep.BudgetTicks)
		violations++
	}
	for _, class := range sortedKeys(led.PerClass) {
		check("aggregate", class, led.PerClass[class])
	}
	for _, sh := range led.PerShard {
		for _, class := range sortedKeys(sh.PerClass) {
			check(fmt.Sprintf("shard %d (X=%d)", sh.Shard, sh.X), class, sh.PerClass[class])
		}
	}
	if led.Config.Shards > 0 && len(led.PerShard) != led.Config.Shards {
		fmt.Fprintf(os.Stderr, "benchjson: serve FAIL: summary declares %d shards but carries %d per-shard reports\n",
			led.Config.Shards, len(led.PerShard))
		violations++
	}
	if minOps > 0 {
		switch {
		case led.OpsPerSec >= minOps:
			fmt.Fprintf(os.Stderr, "benchjson: serve ok   throughput: %.2f ops/sec >= %.2f floor\n",
				led.OpsPerSec, minOps)
		case led.OpsPerSec == 0:
			fmt.Fprintf(os.Stderr, "benchjson: serve FAIL throughput: summary carries no ops_per_sec (virtual-time run?) but a %.2f floor was set\n",
				minOps)
			violations++
		default:
			fmt.Fprintf(os.Stderr, "benchjson: serve FAIL throughput: %.2f ops/sec < %.2f floor\n",
				led.OpsPerSec, minOps)
			violations++
		}
	}
	return violations
}

// serveDiff prints a side-by-side comparison of load summaries — one
// column per summary — so codec or pipeline variants read as a
// table instead of two JSON files. Columns are labeled by codec when the
// summaries disagree on it, by file name otherwise.
func serveDiff(w io.Writer, paths []string, sums []*serve.Summary) {
	labels := make([]string, len(sums))
	codecs := map[string]bool{}
	for i, s := range sums {
		labels[i] = s.Config.Codec
		if labels[i] == "" {
			labels[i] = "inproc"
		}
		codecs[labels[i]] = true
	}
	if len(codecs) != len(sums) {
		copy(labels, paths)
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	row := func(name string, cell func(*serve.Summary) string) {
		fmt.Fprint(tw, name)
		for _, s := range sums {
			fmt.Fprintf(tw, "\t%s", cell(s))
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "")
	for _, label := range labels {
		fmt.Fprintf(tw, "\t%s", label)
	}
	fmt.Fprintln(tw)
	row("ops/sec", func(s *serve.Summary) string {
		if s.OpsPerSec == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", s.OpsPerSec)
	})
	row("total ops", func(s *serve.Summary) string { return fmt.Sprint(s.TotalOps) })
	row("pipeline", func(s *serve.Summary) string {
		if s.Config.Pipeline == 0 {
			return "1"
		}
		return fmt.Sprint(s.Config.Pipeline)
	})
	classes := map[string]bool{}
	for _, s := range sums {
		for class := range s.PerClass {
			classes[class] = true
		}
	}
	for _, class := range sortedKeys(classes) {
		row(class+" p99 (slo)", func(s *serve.Summary) string {
			rep, ok := s.PerClass[class]
			if !ok {
				return "-"
			}
			return fmt.Sprintf("%d (%d)", rep.Latency.P99, rep.FormulaTicks+rep.BudgetTicks)
		})
	}
	tw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lastSnapshot reads the final snapshot line of an obs JSONL file.
func lastSnapshot(path string) (obs.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return obs.Snapshot{}, err
	}
	var last string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if last == "" {
		return obs.Snapshot{}, fmt.Errorf("benchjson: %s has no snapshot lines", path)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(last), &snap); err != nil {
		return obs.Snapshot{}, fmt.Errorf("benchjson: %s is not an obs snapshot file: %w", path, err)
	}
	return snap, nil
}

func main() {
	set := flag.String("set", "after", `ledger side to merge into ("before" or "after")`)
	out := flag.String("o", "BENCH_engine.json", "ledger file to update")
	guard := flag.Bool("guard", false, "compare stdin results against the ledger's after side instead of merging; nonzero exit on regression")
	pct := flag.Float64("pct", 5, "allowed ns/op regression percentage under -guard")
	exactFlag := flag.String("exact", "allocs/op", "comma-separated metrics that must not increase at all under -guard")
	snapshots := flag.String("snapshots", "", "fold the final snapshot of this obs JSONL file into the ledger instead of reading stdin")
	serveFile := flag.String("serve", "", "validate these load summaries (comma-separated BENCH_serve.json files): fail unless every class report, aggregate and per-shard, is within its latency budget; multiple files also print a side-by-side diff")
	minOps := flag.Float64("min-ops", 0, "ops_per_sec floor each -serve summary must clear (0 = no floor)")
	flag.Parse()
	if *set != "before" && *set != "after" {
		fmt.Fprintf(os.Stderr, "benchjson: -set must be before or after, got %q\n", *set)
		os.Exit(2)
	}
	if *serveFile != "" {
		paths := strings.Split(*serveFile, ",")
		sums := make([]*serve.Summary, 0, len(paths))
		violations := 0
		for i, path := range paths {
			paths[i] = strings.TrimSpace(path)
			data, err := os.ReadFile(paths[i])
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			var sum serve.Summary
			if err := json.Unmarshal(data, &sum); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %s is not a load summary: %v\n", paths[i], err)
				os.Exit(1)
			}
			if len(sum.PerClass) == 0 {
				fmt.Fprintf(os.Stderr, "benchjson: %s has no class reports\n", paths[i])
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "benchjson: serve guard: %s\n", paths[i])
			violations += guardServe(&sum, *minOps)
			sums = append(sums, &sum)
		}
		if len(sums) > 1 {
			serveDiff(os.Stderr, paths, sums)
		}
		if violations > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: serve guard: %d violation(s) in %s\n", violations, *serveFile)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: serve guard passed for %s\n", *serveFile)
		return
	}
	led, err := load(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *guard {
		exact := map[string]bool{}
		for _, m := range strings.Split(*exactFlag, ",") {
			if m = strings.TrimSpace(m); m != "" {
				exact[m] = true
			}
		}
		if v := guardStdin(led, *pct, exact); v > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: guard: %d violation(s) against %s\n", v, *out)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: guard passed against %s\n", *out)
		return
	}
	side := &led.Before
	if *set == "after" {
		side = &led.After
	}
	if *side == nil {
		*side = map[string]map[string]float64{}
	}
	n := 0
	if *snapshots != "" {
		snap, err := lastSnapshot(*snapshots)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for name, metrics := range snap.Flatten() {
			if (*side)[name] == nil {
				(*side)[name] = map[string]float64{}
			}
			for k, v := range metrics {
				(*side)[name][k] = v
			}
			n++
		}
	} else {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			name, metrics, ok := parse(sc.Text())
			if !ok {
				continue
			}
			if (*side)[name] == nil {
				(*side)[name] = map[string]float64{}
			}
			for k, v := range metrics {
				(*side)[name][k] = v
			}
			n++
		}
		if err := sc.Err(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if n == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	led.recompute()
	data, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: merged %d benchmark(s) into %s side of %s\n", n, *set, *out)
}
