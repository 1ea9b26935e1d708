// Command cmp compares two result files of the benchmark, metric by metric,
// against each end-to-end metric's bound:
//
//	go run ./cmp a.json b.json        (from bench/)
//
// a is the reference (the parent commit, or the first of two run sets of
// one commit) and b the candidate. One row per (workload, metric) gives
// both medians, both spreads (the distance between the quartiles over the
// median) and a verdict:
//
//	worse       b's median is worse than a's by more than the bound
//	unresolved  not worse, but a spread is wider than the bound, so the
//	            files cannot show the metric unchanged — unless every run
//	            of b reads better than every run of a
//	ok          otherwise
//
// It exits 1 when any row is worse, 2 on bad input. With -strict an
// unresolved row fails too: the acceptance check of two run sets of one
// commit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type run struct {
	Workload string            `json:"workload"`
	Trace    int               `json:"trace"`
	Metrics  map[string]metric `json:"metrics"`
}

type bound struct {
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type resultFile struct {
	Runs   []run            `json:"runs"`
	Bounds map[string]bound `json:"bounds"`
}

func load(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Bounds) == 0 {
		return nil, fmt.Errorf("%s: no bounds: not a result file of the benchmark", path)
	}
	return &f, nil
}

// values collects the untraced runs' readings: workload → metric → values.
func (f *resultFile) values() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// quartile is the k-th quartile of sorted xs (at least two values) as
// Python's statistics.quantiles(xs, n=4) defines it — the rule the
// repository's driver applies to the same data.
func quartile(xs []float64, k int) float64 {
	n := len(xs)
	j := min(max(k*(n+1)/4, 1), n-1)
	delta := float64(k*(n+1) - j*4)
	return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
}

func median(xs []float64) float64 {
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// summary is a metric's median and spread over one file's runs.
type summary struct {
	median, spread, best, worst float64
	n                           int
}

func summarize(xs []float64, higherBetter bool) summary {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	s := summary{median: median(xs), n: len(xs), best: xs[0], worst: xs[len(xs)-1]}
	if higherBetter {
		s.best, s.worst = s.worst, s.best
	}
	if len(xs) >= 2 && s.median != 0 {
		s.spread = (quartile(xs, 3) - quartile(xs, 1)) / math.Abs(s.median)
	}
	return s
}

func verdict(a, b summary, bd bound) string {
	higher := bd.Better == "higher"
	worsening := (b.median - a.median) / math.Abs(a.median)
	if higher {
		worsening = -worsening
	}
	switch {
	case worsening > bd.Bound:
		return "worse"
	case math.Max(a.spread, b.spread) > bd.Bound:
		// Every run of b better than every run of a settles it anyway.
		if (higher && b.worst > a.best) || (!higher && b.worst < a.best) {
			return "ok"
		}
		return "unresolved"
	default:
		return "ok"
	}
}

func main() {
	strict := flag.Bool("strict", false, "fail on unresolved rows too")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: cmp [-strict] a.json b.json")
		os.Exit(2)
	}
	a, err := load(flag.Arg(0))
	if err == nil {
		var b *resultFile
		if b, err = load(flag.Arg(1)); err == nil {
			os.Exit(compare(a, b, *strict))
		}
	}
	fmt.Fprintln(os.Stderr, "cmp:", err)
	os.Exit(2)
}

func compare(a, b *resultFile, strict bool) int {
	av, bv := a.values(), b.values()
	workloads := make([]string, 0, len(av))
	for w := range av {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	names := make([]string, 0, len(a.Bounds))
	for name := range a.Bounds {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Printf("%-15s %-16s %6s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "runs", "median a", "median b", "spread a", "spread b", "bound", "verdict")
	worse, unresolved := 0, 0
	for _, w := range workloads {
		for _, name := range names {
			xa, xb := av[w][name], bv[w][name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Printf("%-15s %-16s missing from one file\n", w, name)
				worse++
				continue
			}
			bd := a.Bounds[name]
			sa, sb := summarize(xa, bd.Better == "higher"), summarize(xb, bd.Better == "higher")
			v := verdict(sa, sb, bd)
			switch v {
			case "worse":
				worse++
			case "unresolved":
				unresolved++
			}
			fmt.Printf("%-15s %-16s %3d/%-3d %14.4f %14.4f %7.2f%% %7.2f%% %5.0f%%  %s\n",
				w, name, sa.n, sb.n, sa.median, sb.median, 100*sa.spread, 100*sb.spread, 100*bd.Bound, v)
		}
	}
	fmt.Printf("%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 || (strict && unresolved > 0) {
		return 1
	}
	return 0
}
