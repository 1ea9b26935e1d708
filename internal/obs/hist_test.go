package obs_test

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"lintime/internal/obs"
)

// sortedQuantile is the oracle for the repo's quantile convention,
// computed the slow way: sort, then take the nearest rank — the smallest
// sample such that at least ⌈q·n⌉ samples are ≤ it.
func sortedQuantile(samples []int64, q float64) int64 {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// TestHistMatchesHistio pins the fixed-bucket histogram to the exact
// nearest-rank convention (first implemented by internal/histio's sorted
// sample list, hence the name, now by the sort-based oracle above): with
// one bucket per tick value there is no binning error, so every quantile
// and the truncated mean must agree exactly.
func TestHistMatchesHistio(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	uniform := func(n int, below int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = rng.Int63n(below)
		}
		return out
	}
	descending := make([]int64, 100) // 100, 99, …, 1: inserted unsorted
	for i := range descending {
		descending[i] = int64(100 - i)
	}
	for _, tc := range []struct {
		name    string
		limit   int
		samples []int64
	}{
		{"uniform-256", 256, uniform(10_000, 256)},
		{"uniform-10000", 10_000, uniform(1000, 10_000)},
		{"1-to-100", 101, descending},
		{"single", 64, []int64{42}},
	} {
		h := obs.NewHist(tc.limit)
		var sum int64
		for _, v := range tc.samples {
			h.Add(v)
			sum += v
		}
		for _, q := range []float64{0, 0.01, 0.1, 0.5, 0.501, 0.9, 0.95, 0.99, 0.999, 1} {
			if got, want := h.Quantile(q), sortedQuantile(tc.samples, q); got != want {
				t.Errorf("%s: Quantile(%v) = %d, want %d", tc.name, q, got, want)
			}
		}
		s := h.Summary()
		if s.Count != int64(len(tc.samples)) || s.Sum != sum || s.Mean != sum/int64(len(tc.samples)) ||
			s.Min != sortedQuantile(tc.samples, 0) || s.Max != sortedQuantile(tc.samples, 1) ||
			s.P50 != h.Quantile(0.5) || s.P95 != h.Quantile(0.95) || s.P99 != h.Quantile(0.99) {
			t.Errorf("%s: summary %+v disagrees with the samples", tc.name, s)
		}
	}
	// The oracle itself, against a hand-computed case: 1..100 has p50=50,
	// p95=95, p99=99, ⌈0.501·100⌉ = 51, and mean 50.5 truncated to 50.
	for q, want := range map[float64]int64{0: 1, 0.01: 1, 0.5: 50, 0.501: 51, 0.95: 95, 0.99: 99, 1: 100} {
		if got := sortedQuantile(descending, q); got != want {
			t.Errorf("oracle: 1..100 Quantile(%v) = %d, want %d", q, got, want)
		}
	}
}

// TestHistBucketBoundaries pins the exact bucket-edge behavior: 0 and
// limit-1 are in range, limit and above land in the overflow bucket but
// still report exact max, negatives clamp to 0.
func TestHistBucketBoundaries(t *testing.T) {
	const limit = 8
	h := obs.NewHist(limit)
	for _, v := range []int64{0, limit - 1, limit, limit + 100, -3} {
		h.Add(v)
	}
	s := h.Summary()
	if s.Count != 5 {
		t.Fatalf("count: got %d, want 5", s.Count)
	}
	if s.Min != 0 {
		t.Fatalf("min: got %d, want 0 (negative clamps to 0)", s.Min)
	}
	if s.Max != limit+100 {
		t.Fatalf("max: got %d, want %d (overflow keeps exact max)", s.Max, limit+100)
	}
	// Ranks: sorted clamped samples are [0, 0, 7, 8+, 8+]. The nearest-rank
	// median (rank 3 of 5) is 7; p95/p99 (rank 5) fall in the overflow
	// bucket, which reports the exact observed maximum.
	if s.P50 != limit-1 {
		t.Fatalf("p50: got %d, want %d", s.P50, limit-1)
	}
	if s.P99 != limit+100 {
		t.Fatalf("p99: got %d, want %d", s.P99, limit+100)
	}
}

func TestHistEmpty(t *testing.T) {
	h := obs.NewHist(16)
	s := h.Summary()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.P50 != 0 || s.Mean != 0 {
		t.Fatalf("empty summary not all-zero: %+v", s)
	}
}

// TestHistConcurrent hammers Add from many goroutines; under -race this
// validates the lock-free publication order (count is incremented last).
func TestHistConcurrent(t *testing.T) {
	const goroutines, perG = 16, 5_000
	h := obs.NewHist(64)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Add(int64((g*perG + i) % 64))
			}
		}()
	}
	wg.Wait()
	s := h.Summary()
	if s.Count != goroutines*perG {
		t.Fatalf("count: got %d, want %d", s.Count, goroutines*perG)
	}
	if s.Min != 0 || s.Max != 63 {
		t.Fatalf("extrema: got min=%d max=%d, want 0/63", s.Min, s.Max)
	}
}
