package obs

import (
	"math"
	"sync/atomic"
)

// DefaultHistLimit is the bucket count used when a histogram is created
// with limit ≤ 0. Latencies in this repository are small virtual-tick
// integers (a few multiples of d, itself tens of ticks), so 4096
// one-tick buckets makes every realistic sample exact.
const DefaultHistLimit = 4096

// Hist is a fixed-bucket concurrent latency histogram with one bucket per
// integer value in [0, limit): recorded values below the limit have an
// exact distribution, so p50/p95/p99 are exact order statistics — the
// repository's one nearest-rank quantile implementation, pinned by the
// tests against a sort-based oracle. Values ≥ limit land in a single
// overflow bucket and quantiles that fall there report the exact
// observed maximum (an upper bound for any rank inside the tail).
// Negative values clamp to 0.
//
// All methods are safe for concurrent use. Add is wait-free: two bucket
// increments plus min/max CAS loops. Quantile reads are taken without a
// barrier, so a snapshot racing writers may be off by in-flight samples —
// exactly the monitoring semantics a /metrics scrape wants; quiesce first
// when exactness across the whole set matters (the tests do).
type Hist struct {
	limit   int
	buckets []atomic.Uint64 // len limit+1; buckets[limit] = overflow
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64 // valid once count > 0 (samples are non-negative)
	min     atomic.Int64 // sentinel math.MaxInt64 until the first Add lands
}

// NewHist builds a histogram with one bucket per value in [0, limit).
// limit ≤ 0 selects DefaultHistLimit.
func NewHist(limit int) *Hist {
	if limit <= 0 {
		limit = DefaultHistLimit
	}
	h := &Hist{limit: limit, buckets: make([]atomic.Uint64, limit+1)}
	h.min.Store(math.MaxInt64)
	return h
}

// Limit returns the exact-range bound (values ≥ Limit share the overflow
// bucket).
func (h *Hist) Limit() int { return h.limit }

// Add records one sample.
func (h *Hist) Add(v int64) {
	if v < 0 {
		v = 0
	}
	idx := v
	if idx >= int64(h.limit) {
		idx = int64(h.limit)
	}
	h.buckets[idx].Add(1)
	h.sum.Add(v)
	// The marks only ever tighten (max starts at 0, min at the sentinel),
	// so plain CAS loops are race-free regardless of writer interleaving.
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	// Count lands last: count > 0 implies at least one writer has fully
	// published its sample into the buckets and marks.
	h.count.Add(1)
}

// Count returns the number of recorded samples.
func (h *Hist) Count() int64 { return int64(h.count.Load()) }

// Sum returns the sum of recorded samples.
func (h *Hist) Sum() int64 { return h.sum.Load() }

// Min returns the smallest sample (0 when empty).
func (h *Hist) Min() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest sample (0 when empty).
func (h *Hist) Max() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Mean returns the average sample rounded toward zero (0 when empty).
func (h *Hist) Mean() int64 {
	n := int64(h.count.Load())
	if n == 0 {
		return 0
	}
	return h.sum.Load() / n
}

// Quantile returns the nearest-rank q-quantile (q in [0, 1]): the
// smallest recorded value v such that at least ⌈q·count⌉ samples are ≤ v.
// Quantile(0) is the minimum, Quantile(1) the maximum; an empty histogram
// returns 0. A quantile that lands in the overflow bucket reports the
// observed maximum.
func (h *Hist) Quantile(q float64) int64 {
	total := int64(h.count.Load())
	if total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := int64(q * float64(total))
	if float64(rank) < q*float64(total) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := 0; i <= h.limit; i++ {
		cum += int64(h.buckets[i].Load())
		if cum >= rank {
			if i == h.limit {
				return h.Max()
			}
			return int64(i)
		}
	}
	// Writers raced the scan (bucket increments land before the count);
	// the maximum is the only safe answer for a trailing rank.
	return h.Max()
}

// HistSummary is the JSON-ready quantile set of a histogram. Field names
// match serve.Quantiles so load summaries and live snapshots read
// identically.
type HistSummary struct {
	Count int64 `json:"count"`
	Min   int64 `json:"min"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
	Max   int64 `json:"max"`
	Mean  int64 `json:"mean"`
	Sum   int64 `json:"sum"`
}

// Summary extracts the standard quantile set.
func (h *Hist) Summary() HistSummary {
	return HistSummary{
		Count: h.Count(),
		Min:   h.Min(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
		Mean:  h.Mean(),
		Sum:   h.Sum(),
	}
}
