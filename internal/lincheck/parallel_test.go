package lincheck

import (
	"math/rand"
	"reflect"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// randomHistory builds an overlapping history by running legal sequences
// and stretching the intervals so operations overlap.
func randomHistory(seed int64, n int) []Op {
	rng := rand.New(rand.NewSource(seed))
	dt := adt.NewQueue()
	state := dt.Initial()
	ops := dt.Ops()
	var h []Op
	tm := simtime.Time(0)
	for i := 0; i < n; i++ {
		op := ops[rng.Intn(len(ops))]
		arg := op.Args[rng.Intn(len(op.Args))]
		ret, next := state.Apply(op.Name, arg)
		state = next
		// Stretch each interval across its neighbors to force overlap.
		h = append(h, Op{ID: i, Name: op.Name, Arg: arg, Ret: ret,
			Invoke: tm, Respond: tm + 25})
		tm += 10
	}
	return h
}

func TestCheckParallelMatchesCheck(t *testing.T) {
	dt := adt.NewQueue()
	for seed := int64(0); seed < 8; seed++ {
		h := randomHistory(seed, 14)
		seq := Check(dt, h)
		for _, workers := range []int{1, 2, 4, 8} {
			par := CheckParallel(dt, h, workers)
			if par.Linearizable != seq.Linearizable {
				t.Errorf("seed %d workers %d: parallel %v != sequential %v",
					seed, workers, par.Linearizable, seq.Linearizable)
			}
			// Below two workers it IS the sequential search; above, every
			// root branch is searched from a clean memo, as before the
			// Checker, so Explored is a function of the history alone.
			want := seq
			if workers >= 2 {
				want = oldCheckParallel(dt, h, workers)
			}
			if !reflect.DeepEqual(par, want) {
				t.Errorf("seed %d workers %d: %+v, want %+v", seed, workers, par, want)
			}
		}
	}
}

// TestParallelWitnessesAreOwned pins that the parallel checks return
// witnesses of their own although each worker reuses one Checker across
// root branches: on a history every branch of which succeeds (eight
// concurrent enqueues, so branch b's witness starts with enqueue b), the
// witness of the lowest branch is the sequential one and still legal
// after later calls, and a worker's first branch keeps its witness while
// the same Checker searches the next.
func TestParallelWitnessesAreOwned(t *testing.T) {
	dt := adt.NewQueue()
	var h []Op
	for i := 0; i < 8; i++ {
		h = append(h, Op{ID: i, Proc: i, Name: adt.OpEnqueue, Arg: i, Invoke: simtime.Time(i), Respond: 20})
	}
	tr := &sim.Trace{}
	for _, op := range h {
		tr.Ops = append(tr.Ops, sim.OpRecord{Proc: sim.ProcID(op.Proc), Op: op.Name, Arg: op.Arg,
			InvokeTime: op.Invoke, RespondTime: op.Respond})
	}
	want := Check(dt, h).Linearization
	results := []Result{CheckParallel(dt, h, 2), CheckTraceParallel(dt, tr, 2)}
	CheckParallel(dt, h, 2)
	CheckTraceParallel(dt, tr, 2)
	for i, res := range results {
		if !res.Linearizable || !reflect.DeepEqual(res.Linearization, want) || !spec.Legal(dt, res.Linearization) {
			t.Errorf("call %d: witness %v after later calls, want %v", i, res.Linearization, want)
		}
	}

	c := NewChecker(dt)
	c.ops = append(c.ops, h...)
	completed := c.compile()
	first := c.checkAfter(0, completed)
	kept := append([]spec.Instance(nil), first.Linearization...)
	if second := c.checkAfter(1, completed); reflect.DeepEqual(second.Linearization, kept) {
		t.Fatalf("branches 0 and 1 found the same witness %v", kept)
	}
	if !reflect.DeepEqual(first.Linearization, kept) {
		t.Errorf("branch 0's witness became %v when the Checker searched branch 1, was %v", first.Linearization, kept)
	}
}

func TestCheckParallelRejectsIllegal(t *testing.T) {
	dt := adt.NewRegister(0)
	h := []Op{
		regOp(0, "write", 5, nil, 0, 10),
		regOp(1, "read", nil, 0, 20, 30), // stale read after the write
	}
	if CheckParallel(dt, h, 4).Linearizable {
		t.Error("parallel checker accepted a non-linearizable history")
	}
}

func TestCheckParallelWitnessDeterministic(t *testing.T) {
	dt := adt.NewQueue()
	h := randomHistory(3, 12)
	first := CheckParallel(dt, h, 4)
	if !first.Linearizable {
		t.Fatal("history should linearize")
	}
	for i := 0; i < 5; i++ {
		again := CheckParallel(dt, h, 4)
		if len(again.Linearization) != len(first.Linearization) {
			t.Fatal("witness length varies across runs")
		}
		for j := range again.Linearization {
			if again.Linearization[j].String() != first.Linearization[j].String() {
				t.Fatalf("witness op %d varies across runs: %v vs %v",
					j, again.Linearization[j], first.Linearization[j])
			}
		}
	}
}

func TestCheckParallelPendingOnly(t *testing.T) {
	dt := adt.NewRegister(0)
	h := []Op{{ID: 0, Name: "write", Arg: 1, Invoke: 0, Respond: simtime.Infinity}}
	if !CheckParallel(dt, h, 4).Linearizable {
		t.Error("pending-only history is linearizable")
	}
}

// BenchmarkCheckMemo stresses the memoization table with commuting
// concurrent increments — the workload where memo-key construction
// dominates. Run with -benchmem to track the per-check allocation cost.
func BenchmarkCheckMemo(b *testing.B) {
	dt := adt.NewCounter()
	var h []Op
	for i := 0; i < 14; i++ {
		h = append(h, Op{ID: i, Name: "inc", Invoke: 0, Respond: 100})
	}
	h = append(h, Op{ID: 14, Name: "read", Ret: 14, Invoke: 200, Respond: 210})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Check(dt, h).Linearizable {
			b.Fatal("concurrent increments must linearize")
		}
	}
}

// BenchmarkCheckQueueHistory measures the checker on a realistic
// overlapping queue history.
func BenchmarkCheckQueueHistory(b *testing.B) {
	dt := adt.NewQueue()
	h := randomHistory(7, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Check(dt, h).Linearizable {
			b.Fatal("history must linearize")
		}
	}
}

// BenchmarkCheckerReuse is the verification pipeline's use of the checker:
// a stream of fuzz-sized queue histories through one Checker.
func BenchmarkCheckerReuse(b *testing.B) {
	dt := adt.NewQueue()
	rng := rand.New(rand.NewSource(1))
	stream := make([][]Op, 1024)
	for i := range stream {
		stream[i] = fuzzSizedHistory(rng, dt, 7)
	}
	c := NewChecker(dt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Check(stream[i%len(stream)])
	}
}
