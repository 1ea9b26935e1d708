package harness

import (
	"runtime"
	"sync"
)

// DeriveSeed returns the sub-seed for one named random stream of a master
// seed: master ⊕ FNV-1a(runID). Every independent stream of an experiment
// (workload choices, network delays, clock offsets, each sweep point, …)
// takes its own runID, so streams never alias each other and a run's
// output depends only on (master seed, runID) — never on which worker
// goroutine executes it or in what order. A runID built per run may come
// as bytes, so a caller can format it into a reused buffer.
func DeriveSeed[ID string | []byte](master int64, runID ID) int64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(runID); i++ {
		h = (h ^ uint64(runID[i])) * fnvPrime
	}
	return master ^ int64(h)
}

// The 64-bit FNV-1a parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Parallelism resolves a requested worker count: values below 1 select
// GOMAXPROCS.
func Parallelism(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// RunIndexed executes f(0..n-1) across at most parallel worker
// goroutines (Parallelism semantics: < 1 selects GOMAXPROCS) and returns
// the lowest-index error, so failures are deterministic regardless of
// scheduling. With one worker it runs inline in index order and stops at
// the first error. As long as f(i) depends only on i — derive per-index
// seeds with DeriveSeed — results are identical at every parallelism
// level.
func RunIndexed(n, parallel int, f func(i int) error) error {
	parallel = min(Parallelism(parallel), n)
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunChunks is the deterministic campaign driver behind the fuzzer, the
// strong-linearizability hunt and the exhaustive bmc sweep. It evaluates
// items 0..n-1 in consecutive chunks of chunk > 0 items (the last one may
// be short); each chunk fans out through RunIndexed, then fold sees that
// chunk's values in index order. fold runs only between chunks, so state
// it writes (a coverage pool, a violation list) may be read by the next
// chunk's eval without locking. A stop from fold ends the run after the
// current chunk — the rest of that chunk is still folded — so which items
// run depends on (n, chunk, fold) alone, never on parallelism. It returns
// the chunk's lowest-index eval error or the first fold error.
func RunChunks[T any](n, chunk, parallel int, eval func(i int) (T, error), fold func(i int, v T) (stop bool, err error)) error {
	vals := make([]T, min(chunk, n))
	for base := 0; base < n; base += chunk {
		count := min(chunk, n-base)
		if err := RunIndexed(count, parallel, func(k int) error {
			v, err := eval(base + k)
			vals[k] = v
			return err
		}); err != nil {
			return err
		}
		stop := false
		for k := 0; k < count; k++ {
			s, err := fold(base+k, vals[k])
			if err != nil {
				return err
			}
			stop = stop || s
		}
		if stop {
			return nil
		}
	}
	return nil
}

// Job is one experiment of a batch: a configuration plus its workload.
type Job struct {
	Config   Config
	Workload Workload
}

// RunJobs executes a batch of independent experiments across at most
// parallel worker goroutines (Parallelism semantics: < 1 selects
// GOMAXPROCS) and returns the results in job order. Each job is fully
// determined by its own seeds, so the output is bit-identical to running
// the jobs sequentially — use DeriveSeed to give every job independent
// streams of a single master seed. The first error (by job index) aborts
// the batch result.
func RunJobs(jobs []Job, parallel int) ([]*Result, error) {
	out := make([]*Result, len(jobs))
	err := RunIndexed(len(jobs), parallel, func(i int) error {
		res, err := Run(jobs[i].Config, jobs[i].Workload)
		if err != nil {
			return err
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
