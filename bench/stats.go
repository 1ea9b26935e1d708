package main

import (
	"math"
	"sort"
)

// quantile returns the linearly interpolated q-quantile of xs (sorted in
// place); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// tickRatio is one operation's service latency over its class bound, both
// in ticks.
type tickRatio struct{ lat, bound int32 }

// ratioQuantile is the q-quantile of latency/bound treating the data as
// grouped: invoke and respond instants are both floored to whole ticks, so
// a recorded latency of L ticks stands for a true latency spread around L,
// and a plain order statistic would jump by a whole 1/bound (3% of a
// 32-tick bound) when the rank crosses a group edge. Interpolating inside
// the group [L−½, L+½) by the rank's position in it gives a continuous
// statistic with the same expectation.
func ratioQuantile(rs []tickRatio, q float64) float64 {
	if len(rs) == 0 {
		return 0
	}
	sorted := append([]tickRatio(nil), rs...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if l, r := int64(a.lat)*int64(b.bound), int64(b.lat)*int64(a.bound); l != r {
			return l < r
		}
		return a.bound < b.bound
	})
	rank := q * float64(len(sorted))
	i := int(rank)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	g := sorted[i]
	lo, hi := i, i
	for lo > 0 && sorted[lo-1] == g {
		lo--
	}
	for hi+1 < len(sorted) && sorted[hi+1] == g {
		hi++
	}
	frac := (rank - float64(lo)) / float64(hi-lo+1)
	return (float64(g.lat) - 0.5 + frac) / float64(g.bound)
}

// tickQuantile is the interpolated q-quantile of the latencies themselves,
// in ticks.
func tickQuantile(rs []tickRatio, q float64) float64 {
	ticks := make([]tickRatio, len(rs))
	for i, r := range rs {
		ticks[i] = tickRatio{r.lat, 1}
	}
	return ratioQuantile(ticks, q)
}

// subWindows is how many equal parts of the measured window every
// rate-like or percentile metric is computed on; the reported value is the
// median of the parts, so one host stall moves one part, not the metric.
const subWindows = 5

// windowedMedian applies stat to the samples of each sub-window (by
// completion time) and returns the median of the results. Empty
// sub-windows are left out.
func windowedMedian(samples []sample, window int64, stat func([]sample) float64) float64 {
	parts := make([][]sample, subWindows)
	for _, s := range samples {
		i := int(s.done * subWindows / window)
		if i >= subWindows {
			i = subWindows - 1
		}
		parts[i] = append(parts[i], s)
	}
	var vals []float64
	for _, p := range parts {
		if len(p) > 0 {
			vals = append(vals, stat(p))
		}
	}
	return median(vals)
}
