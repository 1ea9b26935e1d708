package harness

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"lintime/internal/simtime"
)

func TestDeriveSeedIndependentStreams(t *testing.T) {
	master := int64(17)
	ids := []string{"workload", "config", "sweep/0/config", "sweep/1/config", "table/workload"}
	seen := map[int64]string{}
	for _, id := range ids {
		s := DeriveSeed(master, id)
		if prev, dup := seen[s]; dup {
			t.Errorf("streams %q and %q alias to seed %d", prev, id, s)
		}
		seen[s] = id
		if s == master {
			t.Errorf("stream %q derived the master seed itself", id)
		}
		if again := DeriveSeed(master, id); again != s {
			t.Errorf("DeriveSeed(%d, %q) not deterministic: %d vs %d", master, id, s, again)
		}
		// The seed is master ⊕ FNV-1a(runID), whichever form the ID takes.
		h := fnv.New64a()
		h.Write([]byte(id))
		if bytes := DeriveSeed(master, []byte(id)); s != master^int64(h.Sum64()) || bytes != s {
			t.Errorf("DeriveSeed(%d, %q) = %d, as bytes %d; FNV-1a gives %d", master, id, s, bytes, master^int64(h.Sum64()))
		}
	}
	if DeriveSeed(1, "x") == DeriveSeed(2, "x") {
		t.Error("distinct masters must derive distinct sub-seeds")
	}
}

func TestParallelism(t *testing.T) {
	if Parallelism(4) != 4 {
		t.Error("explicit parallelism not honored")
	}
	if Parallelism(0) < 1 || Parallelism(-3) < 1 {
		t.Error("defaulted parallelism must be at least 1")
	}
}

func TestRunIndexedOrderAndErrors(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		var mu sync.Mutex
		ran := map[int]bool{}
		err := RunIndexed(10, parallel, func(i int) error {
			mu.Lock()
			ran[i] = true
			mu.Unlock()
			return nil
		})
		if err != nil || len(ran) != 10 {
			t.Errorf("parallel=%d: ran %d indices, err %v", parallel, len(ran), err)
		}
		// Lowest-index error wins deterministically.
		err = RunIndexed(10, parallel, func(i int) error {
			if i >= 3 {
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail-3" {
			t.Errorf("parallel=%d: got error %v, want fail-3", parallel, err)
		}
	}
}

// jobBattery builds a mixed batch of independent experiments.
func jobBattery(master int64) []Job {
	p := simtime.DefaultParams(4)
	var jobs []Job
	for i, alg := range []string{AlgCore, AlgCentral, AlgSequencer, AlgCore} {
		runID := fmt.Sprintf("battery/%d", i)
		jobs = append(jobs, Job{
			Config: Config{Params: p, TypeName: "queue", Algorithm: alg,
				Network: NetRandom, Offsets: OffSpread,
				Seed: DeriveSeed(master, runID+"/config")},
			Workload: Workload{OpsPerProc: 5, MaxGap: 40,
				Seed: DeriveSeed(master, runID+"/workload")},
		})
	}
	return jobs
}

// TestRunJobsBitIdenticalAcrossParallelism is the determinism contract of
// the worker pool: the same batch must produce identical traces at every
// parallelism level, including repeated parallel executions (scheduling
// must not leak into results).
func TestRunJobsBitIdenticalAcrossParallelism(t *testing.T) {
	ref, err := RunJobs(jobBattery(7), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{2, 4, 8} {
		got, err := RunJobs(jobBattery(7), parallel)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("parallel=%d: %d results, want %d", parallel, len(got), len(ref))
		}
		for j := range got {
			if got[j].String() != ref[j].String() {
				t.Errorf("parallel=%d job %d: stats differ from sequential run", parallel, j)
			}
			if len(got[j].Trace.Ops) != len(ref[j].Trace.Ops) {
				t.Fatalf("parallel=%d job %d: trace sizes differ", parallel, j)
			}
			for k := range got[j].Trace.Ops {
				if got[j].Trace.Ops[k] != ref[j].Trace.Ops[k] {
					t.Fatalf("parallel=%d job %d: op %d differs from sequential run", parallel, j, k)
				}
			}
		}
	}
}

func TestRunJobsPropagatesError(t *testing.T) {
	jobs := jobBattery(7)
	jobs[2].Config.Algorithm = "nope"
	if _, err := RunJobs(jobs, 4); err == nil {
		t.Error("bad job must fail the batch")
	}
}

// TestMeasureAllTablesParallelIdentical asserts the full table suite
// renders byte-identically at every parallelism level.
func TestMeasureAllTablesParallelIdentical(t *testing.T) {
	p := simtime.DefaultParams(4)
	ref, err := MeasureAllTablesParallel(p, 21, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{2, 4} {
		got, err := MeasureAllTablesParallel(p, 21, parallel)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i].String() != ref[i].String() {
				t.Errorf("parallel=%d: table %d differs from sequential:\n%s\nvs\n%s",
					parallel, i+1, got[i], ref[i])
			}
		}
	}
}

// TestSweepXParallelIdentical asserts the sweep curve is identical at
// every parallelism level.
func TestSweepXParallelIdentical(t *testing.T) {
	p := simtime.DefaultParams(4)
	ref, err := SweepXParallel(p, "queue", 4, 31, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{2, 8} {
		got, err := SweepXParallel(p, "queue", 4, 31, parallel)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("parallel=%d: %d points, want %d", parallel, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Errorf("parallel=%d point %d: %+v != %+v", parallel, i, got[i], ref[i])
			}
		}
	}
}

// TestMeasureOptimalParallelIdentical asserts per-class optimal-X
// measurement is parallelism-independent.
func TestMeasureOptimalParallelIdentical(t *testing.T) {
	p := simtime.DefaultParams(4)
	ref, err := MeasureOptimalParallel("queue", p, 51, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MeasureOptimalParallel("queue", p, 51, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("row counts differ: %d vs %d", len(got), len(ref))
	}
	for i := range got {
		if got[i].Operation != ref[i].Operation || got[i].Measured != ref[i].Measured ||
			got[i].BestX != ref[i].BestX {
			t.Errorf("row %d differs: %+v vs %+v", i, got[i], ref[i])
		}
	}
}

// TestRunIndexed covers the exported deterministic fan-out primitive:
// every index runs exactly once at any parallelism, sequential execution
// preserves index order, and the reported error is the lowest-indexed one
// regardless of scheduling.
func TestRunIndexed(t *testing.T) {
	for _, parallel := range []int{1, 2, 4, 0} {
		var mu sync.Mutex
		ran := make([]int, 16)
		if err := RunIndexed(16, parallel, func(i int) error {
			mu.Lock()
			ran[i]++
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i, c := range ran {
			if c != 1 {
				t.Errorf("parallel=%d: index %d ran %d times", parallel, i, c)
			}
		}
	}

	// Sequential mode runs strictly in index order.
	var order []int
	if err := RunIndexed(8, 1, func(i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order %v", order)
		}
	}

	// The lowest-indexed error wins, at every parallelism.
	for _, parallel := range []int{1, 3, 8} {
		err := RunIndexed(12, parallel, func(i int) error {
			if i%3 == 2 {
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail-2" {
			t.Errorf("parallel=%d: err = %v, want fail-2", parallel, err)
		}
	}

	// Sequential mode stops at the first error; parallel mode still
	// reports the lowest-indexed one.
	calls := 0
	_ = RunIndexed(10, 1, func(i int) error {
		calls++
		return fmt.Errorf("boom")
	})
	if calls != 1 {
		t.Errorf("sequential run made %d calls after error, want 1", calls)
	}

	// Zero items is a no-op.
	if err := RunIndexed(0, 4, func(int) error { return fmt.Errorf("never") }); err != nil {
		t.Errorf("empty run: %v", err)
	}
}

// TestRunChunks covers the campaign driver's contract at every width:
// fold sees 0..n-1 in index order (short last chunk and n = 0
// included), a stop folds the rest of its chunk and evaluates nothing
// after it, the lowest-index eval error wins, and a fold error ends the
// run.
func TestRunChunks(t *testing.T) {
	const chunk = 4
	for _, parallel := range []int{1, 2, 8} {
		for _, n := range []int{0, 3, 8, 10} {
			var folded []int
			err := RunChunks(n, chunk, parallel, func(i int) (int, error) {
				return i * i, nil
			}, func(i, v int) (bool, error) {
				if v != i*i {
					t.Errorf("parallel=%d n=%d: fold(%d) got %d", parallel, n, i, v)
				}
				folded = append(folded, i)
				return false, nil
			})
			if err != nil {
				t.Fatalf("parallel=%d n=%d: %v", parallel, n, err)
			}
			if len(folded) != n {
				t.Fatalf("parallel=%d n=%d: folded %v", parallel, n, folded)
			}
			for i, v := range folded {
				if v != i {
					t.Fatalf("parallel=%d n=%d: fold order %v", parallel, n, folded)
				}
			}
		}

		// A stop at item 5 (chunk 4..7) folds 6 and 7, then ends the run.
		var mu sync.Mutex
		evaluated := map[int]bool{}
		var folded []int
		err := RunChunks(20, chunk, parallel, func(i int) (int, error) {
			mu.Lock()
			evaluated[i] = true
			mu.Unlock()
			return i, nil
		}, func(i, _ int) (bool, error) {
			folded = append(folded, i)
			return i == 5, nil
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if len(folded) != 8 || folded[7] != 7 {
			t.Errorf("parallel=%d: stop at 5 folded %v, want 0..7", parallel, folded)
		}
		if len(evaluated) != 8 || evaluated[8] {
			t.Errorf("parallel=%d: evaluated %d items past the stopping chunk", parallel, len(evaluated)-8)
		}

		// The lowest-index eval error of the failing chunk wins, and
		// nothing of that chunk is folded.
		folded = folded[:0]
		err = RunChunks(20, chunk, parallel, func(i int) (int, error) {
			if i >= 6 {
				return 0, fmt.Errorf("fail-%d", i)
			}
			return i, nil
		}, func(i, _ int) (bool, error) {
			folded = append(folded, i)
			return false, nil
		})
		if err == nil || err.Error() != "fail-6" || len(folded) != 4 {
			t.Errorf("parallel=%d: err = %v after folding %v, want fail-6 after 0..3", parallel, err, folded)
		}

		// A fold error ends the run at once.
		folded = folded[:0]
		err = RunChunks(20, chunk, parallel, func(i int) (int, error) {
			return i, nil
		}, func(i, _ int) (bool, error) {
			folded = append(folded, i)
			if i == 2 {
				return false, fmt.Errorf("fold-%d", i)
			}
			return false, nil
		})
		if err == nil || err.Error() != "fold-2" || len(folded) != 3 {
			t.Errorf("parallel=%d: err = %v after folding %v, want fold-2 after 0..2", parallel, err, folded)
		}
	}
}
