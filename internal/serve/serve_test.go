package serve

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/harness"
	"lintime/internal/lincheck"
	"lintime/internal/obs"
	"lintime/internal/rtnet"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// testConfig keeps virtual magnitudes small so wall-clock runs stay
// short: d = 40 ticks at 1ms/tick → ~40ms operation latencies.
func testConfig(n int) Config {
	u := simtime.Duration(20)
	return Config{
		Params: simtime.Params{
			N: n, D: 40, U: u,
			Epsilon: simtime.OptimalEpsilon(n, u), X: 10,
		},
		TypeName: "queue",
		Tick:     time.Millisecond,
		Offsets:  harness.OffSpread,
		Seed:     7,
	}
}

func startServer(t *testing.T, n int) *Server {
	t.Helper()
	s, err := New(testConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() { s.Drain(30 * time.Second) })
	return s
}

func TestServerCallBasics(t *testing.T) {
	s := startServer(t, 3)
	if r, err := s.Call(adt.OpEnqueue, 7); err != nil || r.Ret != nil {
		t.Errorf("enqueue = (%v, %v)", r.Ret, err)
	} else if r.Class != classify.PureMutator {
		t.Errorf("enqueue class = %v, want MOP", r.Class)
	}
	// Let replication settle, then observe the element.
	time.Sleep(5 * 40 * time.Millisecond)
	if r, err := s.Call(adt.OpPeek, nil); err != nil || !spec.ValuesEqual(r.Ret, 7) {
		t.Errorf("peek = (%v, %v), want 7", r.Ret, err)
	}
	if r, err := s.Call(adt.OpDequeue, nil); err != nil || !spec.ValuesEqual(r.Ret, 7) {
		t.Errorf("dequeue = (%v, %v), want 7", r.Ret, err)
	} else if r.Class != classify.Mixed {
		t.Errorf("dequeue class = %v, want OOP", r.Class)
	}
	st := s.Stats()
	if st.Ops != 3 {
		t.Errorf("stats ops = %d, want 3", st.Ops)
	}
	for _, class := range []string{"AOP", "MOP", "OOP"} {
		if q, ok := st.PerClass[class]; !ok || q.Count != 1 {
			t.Errorf("per-class stats missing %s: %+v", class, st.PerClass)
		}
	}
}

func TestServerRejectsUnknownOp(t *testing.T) {
	s := startServer(t, 2)
	if _, err := s.Call("pop", nil); err == nil {
		t.Error("unknown op should error")
	}
}

func TestServerNotStarted(t *testing.T) {
	s, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Call(adt.OpEnqueue, 1); err == nil {
		t.Error("call before Start should error")
	}
	if err := s.Drain(time.Second); err != nil {
		t.Errorf("drain of never-started server: %v", err)
	}
}

func TestServerDrainRefusesNewCalls(t *testing.T) {
	s := startServer(t, 2)
	if _, err := s.Call(adt.OpEnqueue, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := s.Call(adt.OpEnqueue, 2); err != ErrDraining {
		t.Errorf("call after drain = %v, want ErrDraining", err)
	}
	// Idempotent.
	if err := s.Drain(time.Second); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

func TestServerConcurrentCallsLinearizable(t *testing.T) {
	s := startServer(t, 3)
	const clients, opsEach = 6, 5
	var mu sync.Mutex
	var history []lincheck.Op
	// Stats folds a copy of the record list while the workers below keep
	// appending to it (run under -race in `make race`): the counts it
	// reports can only grow.
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		last := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Stats()
			if st.Ops < last {
				t.Errorf("Stats().Ops went from %d to %d", last, st.Ops)
			}
			last = st.Ops
			time.Sleep(time.Millisecond)
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < opsEach; n++ {
				var r rtnet.Response
				var err error
				switch n % 3 {
				case 0:
					r, err = s.Call(adt.OpEnqueue, c*100+n)
				case 1:
					r, err = s.Call(adt.OpPeek, nil)
				default:
					r, err = s.Call(adt.OpDequeue, nil)
				}
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				mu.Lock()
				history = append(history, lincheck.Op{
					ID: int(r.Seq), Name: r.Op, Arg: r.Arg, Ret: r.Ret,
					Invoke: r.Invoke, Respond: r.Respond,
				})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-polled
	if st := s.Stats(); st.Ops != clients*opsEach {
		t.Errorf("Stats().Ops = %d after the run, want %d", st.Ops, clients*opsEach)
	}
	dt, _ := adt.Lookup("queue")
	if !lincheck.Check(dt, history).Linearizable {
		t.Errorf("served history not linearizable (%d ops)", len(history))
	}
	if got := len(s.Trace().Ops); got != clients*opsEach {
		t.Errorf("trace has %d ops, want %d", got, clients*opsEach)
	}
}

func TestRunLoadInProcess(t *testing.T) {
	s := startShardSet(t, 3, 1)
	sum, err := RunLoad(s, s.Type(), s.Config().Params, s.Config().Tick, LoadConfig{
		Clients:      4,
		OpsPerClient: 6,
		Seed:         11,
		Mix: []harness.OpPick{
			{Op: adt.OpEnqueue, Weight: 2},
			{Op: adt.OpDequeue, Weight: 1},
			{Op: adt.OpPeek, Weight: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalOps != 4*6 {
		t.Errorf("total ops = %d, want 24", sum.TotalOps)
	}
	total := 0
	for _, n := range sum.OpCounts {
		total += n
	}
	if total != sum.TotalOps {
		t.Errorf("op counts sum to %d, want %d", total, sum.TotalOps)
	}
	p := s.Config().Params
	for name, rep := range sum.PerClass {
		if rep.Latency.Count == 0 {
			t.Errorf("class %s has no samples", name)
		}
		if rep.Latency.Min < int64(p.X) {
			t.Errorf("class %s min latency %d below any formula", name, rep.Latency.Min)
		}
		if !rep.WithinBudget {
			t.Errorf("class %s p99 %d exceeds formula %d + budget %d",
				name, rep.Latency.P99, rep.FormulaTicks, rep.BudgetTicks)
		}
	}
	if !sum.SLOMet() {
		t.Error("SLO not met")
	}
}

func TestRunLoadValidation(t *testing.T) {
	s := startShardSet(t, 2, 1)
	p := s.Config().Params
	if _, err := RunLoad(s, s.Type(), p, time.Millisecond, LoadConfig{Clients: 0, OpsPerClient: 1}); err == nil {
		t.Error("zero clients should error")
	}
	if _, err := RunLoad(s, s.Type(), p, time.Millisecond, LoadConfig{Clients: 1}); err == nil {
		t.Error("no duration and no op count should error")
	}
	if _, err := RunLoad(s, s.Type(), p, time.Millisecond, LoadConfig{
		Clients: 1, OpsPerClient: 1, Mix: []harness.OpPick{{Op: "bogus", Weight: 1}},
	}); err == nil {
		t.Error("unknown mix op should error")
	}
}

func TestNewValidation(t *testing.T) {
	cfg := testConfig(2)
	cfg.TypeName = "bogus"
	if _, err := New(cfg); err == nil {
		t.Error("unknown type should error")
	}
	cfg = testConfig(2)
	cfg.Params.U = cfg.Params.D + 1
	if _, err := New(cfg); err == nil {
		t.Error("invalid params should error")
	}
	cfg = testConfig(2)
	cfg.Offsets = "bogus"
	if _, err := New(cfg); err == nil {
		t.Error("unknown offsets should error")
	}
}

// TestRoutingSpreadsOverLiveReplicas pins the router's spread: with every
// replica alive call i lands on replica i mod n, and once replicas 3 and
// 4 of 5 are crashed the three survivors share the calls evenly — the
// dead replicas' turns must not all fall to the next live one. Accessors
// answer from a local timer, so they keep completing under Algorithm 1
// with peers down.
func TestRoutingSpreadsOverLiveReplicas(t *testing.T) {
	cfg := testConfig(5)
	cfg.Tick = 20 * time.Microsecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(30 * time.Second)
	for i := 0; i < 10; i++ {
		r, err := s.Call(adt.OpPeek, nil)
		if err != nil {
			t.Fatal(err)
		}
		if int(r.Proc) != i%5 {
			t.Fatalf("all alive: call %d served by replica %d, want %d", i, r.Proc, i%5)
		}
	}
	s.Crash(3)
	s.Crash(4)
	var mu sync.Mutex
	served := make([]int, 5)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r, err := s.Call(adt.OpPeek, nil)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				served[r.Proc]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for i, n := range served {
		want := 0
		if i < 3 {
			want = 100
		}
		if n < want-1 || n > want+1 {
			t.Errorf("replicas 3, 4 dead: 300 calls landed %v, want 100 ± 1 on each survivor and none on the dead", served)
			break
		}
	}
}

// sortedQuantiles is the oracle for the latency fold, computed the slow
// way: sort, then take nearest ranks (the smallest sample such that at
// least ⌈q·n⌉ samples are ≤ it) and the mean rounded toward zero.
func sortedQuantiles(lat []int64) Quantiles {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	rank := func(q float64) int64 { return lat[max(int(math.Ceil(q*float64(len(lat)))), 1)-1] }
	var sum int64
	for _, v := range lat {
		sum += v
	}
	return Quantiles{Count: len(lat), Min: lat[0], P50: rank(0.50), P95: rank(0.95), P99: rank(0.99),
		Max: lat[len(lat)-1], Mean: sum / int64(len(lat))}
}

// TestLatencyFoldOneAnswer feeds one record set — latencies far past
// obs.DefaultHistLimit, a pending operation, an operation the class map
// does not know — to every consumer of the fold: Server.Stats, a
// one-shard ShardSet.Stats and Summarize must report the same quantiles
// per class and per operation, and those must be exactly what sorting
// the completed latencies gives.
func TestLatencyFoldOneAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	opNames := []string{adt.OpEnqueue, adt.OpPeek, adt.OpDequeue, "mystery"}
	dt, _ := adt.Lookup("queue")
	classes := harness.ClassesFor(dt)
	var ops []sim.OpRecord
	wantClass, wantOp := map[string][]int64{}, map[string][]int64{}
	for i := 0; i < 2000; i++ {
		op := opNames[rng.Intn(len(opNames))]
		lat := rng.Int63n(60)
		if i%7 == 0 {
			lat = obs.DefaultHistLimit + rng.Int63n(100_000) // past the default exact range
		}
		inv := simtime.Time(rng.Int63n(1 << 20))
		ops = append(ops, sim.OpRecord{Proc: 0, SeqID: int64(i), Op: op, InvokeTime: inv, RespondTime: inv.Add(simtime.Duration(lat))})
		class, ok := classes[op]
		if !ok {
			class = classify.Mixed
		}
		wantClass[class.String()] = append(wantClass[class.String()], lat)
		wantOp[op] = append(wantOp[op], lat)
	}
	pending := sim.OpRecord{SeqID: 2000, Op: adt.OpPeek, InvokeTime: 5, RespondTime: simtime.Infinity}

	s, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(time.Second)
	s.rec.recorded = ops // a server records completed operations only
	ss, err := NewShardSet(testShardConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Drain(time.Second)
	ss.shards[0].rec.recorded = ops
	sum := Summarize(func(classify.Class) simtime.Duration { return 0 }, 0, classes,
		append([]sim.OpRecord{pending}, ops...), SummaryConfig{})

	sumClass := map[string]Quantiles{}
	for class, rep := range sum.PerClass {
		sumClass[class] = rep.Latency
	}
	if sum.TotalOps != len(ops) {
		t.Errorf("Summarize counted %d ops, want %d (the pending one skipped)", sum.TotalOps, len(ops))
	}
	wantPerClass, wantPerOp := map[string]Quantiles{}, map[string]Quantiles{}
	for class, lat := range wantClass {
		wantPerClass[class] = sortedQuantiles(lat)
	}
	for op, lat := range wantOp {
		wantPerOp[op] = sortedQuantiles(lat)
		if sum.OpCounts[op] != len(lat) {
			t.Errorf("Summarize op_counts[%s] = %d, want %d", op, sum.OpCounts[op], len(lat))
		}
	}
	st, sst := s.Stats(), ss.Stats()
	for _, got := range []struct {
		who             string
		perClass, perOp map[string]Quantiles
	}{
		{"Server.Stats", st.PerClass, st.PerOp},
		{"ShardSet.Stats", sst.PerClass, sst.PerOp},
		{"Summarize", sumClass, sum.PerOp},
	} {
		if !reflect.DeepEqual(got.perClass, wantPerClass) {
			t.Errorf("%s per class:\n got %+v\nwant %+v", got.who, got.perClass, wantPerClass)
		}
		if !reflect.DeepEqual(got.perOp, wantPerOp) {
			t.Errorf("%s per op:\n got %+v\nwant %+v", got.who, got.perOp, wantPerOp)
		}
	}
}
