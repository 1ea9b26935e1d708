package serve

import (
	"fmt"
	"math"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/harness"
	"lintime/internal/obs"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

func testShardConfig(n, shards int) ShardSetConfig {
	return ShardSetConfig{Config: testConfig(n), Shards: shards}
}

func startShardSet(t *testing.T, n, shards int) *ShardSet {
	t.Helper()
	ss, err := NewShardSet(testShardConfig(n, shards))
	if err != nil {
		t.Fatal(err)
	}
	ss.Start()
	t.Cleanup(func() { ss.Drain(30 * time.Second) })
	return ss
}

// TestShardForPinned pins the key→shard mapping. The routing function is
// part of the deployment contract — objects live on their hash-assigned
// cluster, and changing the mapping silently orphans every stored
// object — so any change here must be a deliberate rebalancing decision,
// not a refactoring accident.
func TestShardForPinned(t *testing.T) {
	cases := []struct {
		key    string
		shards int
		want   int
	}{
		{"a", 4, 0},
		{"b", 4, 1},
		{"c", 4, 2},
		{"d", 4, 3},
		{"user:42", 4, 2},
		{"user:43", 4, 1},
		{"hot", 4, 0},
		{"obj-0", 4, 3},
		{"obj-1", 4, 0},
		{"obj-2", 4, 1},
		{"a", 2, 0},
		{"b", 2, 1},
		{"hot", 2, 0},
		{"", 4, 1},
		{"anything", 1, 0},
		{"anything", 0, 0},
	}
	for _, c := range cases {
		if got := ShardFor(c.key, c.shards); got != c.want {
			t.Errorf("ShardFor(%q, %d) = %d, want %d", c.key, c.shards, got, c.want)
		}
	}
}

func TestShardSetObjectIsolation(t *testing.T) {
	ss := startShardSet(t, 3, 4)
	// Two objects whose keys land on different shards.
	ka, kb := "a", "b"
	if ss.ShardFor(ka) == ss.ShardFor(kb) {
		t.Fatalf("test keys %q and %q share shard %d", ka, kb, ss.ShardFor(ka))
	}
	if _, err := ss.CallKey(ka, adt.OpEnqueue, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.CallKey(kb, adt.OpEnqueue, 2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * 40 * time.Millisecond)
	if r, err := ss.CallKey(ka, adt.OpDequeue, nil); err != nil || !spec.ValuesEqual(r.Ret, 1) {
		t.Errorf("dequeue(%q) = (%v, %v), want 1", ka, r.Ret, err)
	}
	if r, err := ss.CallKey(kb, adt.OpDequeue, nil); err != nil || !spec.ValuesEqual(r.Ret, 2) {
		t.Errorf("dequeue(%q) = (%v, %v), want 2", kb, r.Ret, err)
	}
	if _, err := ss.CallKey("", adt.OpPeek, nil); err == nil {
		t.Error("empty key should error")
	}
	st := ss.Stats()
	if st.Ops != 4 {
		t.Errorf("aggregate stats ops = %d, want 4", st.Ops)
	}
	rep := ss.CheckPerObject(0)
	if !rep.OK() {
		t.Errorf("per-object check failed: %+v", rep)
	}
	if rep.Keys != 2 || rep.Ops != 4 {
		t.Errorf("check saw %d keys / %d ops, want 2 / 4", rep.Keys, rep.Ops)
	}
}

func TestShardSetPerShardX(t *testing.T) {
	cfg := testShardConfig(2, 3)
	cfg.ShardX = []simtime.Duration{5, 10, 15}
	ss, err := NewShardSet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Drain(time.Second)
	for i, x := range cfg.ShardX {
		if got := ss.Shard(i).Config().Params.X; got != x {
			t.Errorf("shard %d X = %d, want %d", i, got, x)
		}
	}
	if _, err := NewShardSet(ShardSetConfig{
		Config: testConfig(2), Shards: 2, ShardX: []simtime.Duration{1},
	}); err == nil {
		t.Error("mismatched ShardX length should error")
	}
}

func TestShardSetMetricNamespacesDisjoint(t *testing.T) {
	ss := startShardSet(t, 2, 2)
	if _, err := ss.CallKey("a", adt.OpEnqueue, 1); err != nil {
		t.Fatal(err)
	}
	snap := obs.TakeSnapshot(ss.Registries()...)
	for i := 0; i < 2; i++ {
		name := obs.WithLabel("serve_calls_total", "shard", fmt.Sprint(i))
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("merged snapshot missing %s", name)
		}
	}
	if _, ok := snap.Counters["serve_calls_total"]; ok {
		t.Error("sharded registries leaked an unlabeled serve_calls_total")
	}
	routed := int64(0)
	for i := 0; i < 2; i++ {
		routed += snap.Counters[obs.WithLabel("router_requests_total", "shard", fmt.Sprint(i))]
	}
	if routed != 1 {
		t.Errorf("router counters sum to %d, want 1", routed)
	}
}

// TestRouterTCPRoundTrip drives the router over TCP at M = 1, where the
// single object takes unkeyed calls, and at M = 2, where calls name their
// object: remote class and latency, value fidelity, the keyed argument
// echo, pipelined calls over one connection, and Serve returning nil
// after the drain.
func TestRouterTCPRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("M=%d", shards), func(t *testing.T) {
			ss := startShardSet(t, 3, shards)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			serveDone := make(chan error, 1)
			go func() { serveDone <- ss.Serve(ln) }()
			c, err := Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			key := ""
			if shards > 1 {
				key = "a"
			}

			r, err := c.call(key, adt.OpEnqueue, 42)
			if err != nil || r.Ret != nil {
				t.Fatalf("remote enqueue = (%v, %v)", r.Ret, err)
			}
			if r.Class != classify.PureMutator {
				t.Errorf("remote class = %v, want MOP", r.Class)
			}
			if r.Latency() <= 0 {
				t.Errorf("remote latency = %v, want > 0", r.Latency())
			}
			if k, inner, ok := adt.SplitKeyArg(r.Arg); key != "" && (!ok || k != key || !spec.ValuesEqual(inner, 42)) {
				t.Errorf("response arg = %#v, want keyed (%s, 42)", r.Arg, key)
			}
			time.Sleep(5 * 40 * time.Millisecond)
			if r, err := c.call(key, adt.OpDequeue, nil); err != nil || !spec.ValuesEqual(r.Ret, 42) {
				t.Errorf("remote dequeue = (%v, %v), want 42", r.Ret, err)
			}
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := c.call(key, adt.OpEnqueue, i); err != nil {
						t.Errorf("pipelined call %d: %v", i, err)
					}
				}()
			}
			wg.Wait()

			if err := ss.Drain(30 * time.Second); err != nil {
				t.Fatalf("drain: %v", err)
			}
			select {
			case err := <-serveDone:
				if err != nil {
					t.Errorf("Serve returned %v after drain, want nil", err)
				}
			case <-time.After(5 * time.Second):
				t.Error("Serve did not return after drain")
			}
		})
	}
}

// TestTopologyGuard pins the one key rule, on the wire and in process: a
// request names an object iff the deployment has more than one shard, so
// a client pointed at the wrong topology fails loudly instead of silently
// operating on the wrong object. Both refusal texts are wire contract.
func TestTopologyGuard(t *testing.T) {
	for _, tc := range []struct {
		shards int
		key    string
		want   string
	}{
		{1, "a", "serve: single-object server: request has an object key (connect to a shard router, or drop the key)"},
		{2, "", "serve: shard router (2 shards): request needs an object key"},
	} {
		t.Run(fmt.Sprintf("M=%d", tc.shards), func(t *testing.T) {
			ss := startShardSet(t, 2, tc.shards)
			c, err := Dial(startTCP(t, ss))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.call(tc.key, adt.OpEnqueue, 1); err == nil || err.Error() != "serve: remote: "+tc.want {
				t.Errorf("remote: err = %v, want %q", err, tc.want)
			}
			if _, err := ss.CallKey(tc.key, adt.OpEnqueue, 1); err == nil || err.Error() != tc.want {
				t.Errorf("in process: err = %v, want %q", err, tc.want)
			}
			if _, err := c.CallKey("", adt.OpPeek, nil); err == nil {
				t.Error("an empty key should fail client-side")
			}
		})
	}
}

// TestShardDrainUnderLoad drains the deployment while clients hammer it
// over TCP, and asserts the graceful-drain contract: every call either
// succeeds exactly once or fails cleanly (draining/connection teardown),
// no response is dropped for an operation that was accepted, and the
// union of successful responses matches the server-side traces. Run
// under -race this also exercises the per-connection WaitGroup protocol.
func TestShardDrainUnderLoad(t *testing.T) {
	ss := startShardSet(t, 2, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ss.Serve(ln)

	const clients = 4
	keys := []string{"a", "b", "c", "d"}
	var mu sync.Mutex
	var succCount int
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.CallKey(keys[(i+n)%len(keys)], adt.OpEnqueue, n); err != nil {
					// Acceptable only as a drain effect: the server refused
					// the op or the connection died during teardown.
					return
				}
				mu.Lock()
				succCount++
				mu.Unlock()
			}
		}()
	}
	// Let traffic build, then drain mid-flight.
	time.Sleep(200 * time.Millisecond)
	if err := ss.Drain(30 * time.Second); err != nil {
		t.Fatalf("drain under load: %v", err)
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	got := succCount
	mu.Unlock()
	if got == 0 {
		t.Fatal("no operation succeeded before the drain")
	}
	// The no-drop/no-dup ledger: every successful client response has
	// exactly one server-side record and vice versa. A dropped response
	// (connection closed before its frame flushed) would leave recorded >
	// got; a duplicated one would leave recorded < got.
	recorded := 0
	for i := 0; i < ss.Shards(); i++ {
		recorded += len(ss.Shard(i).Trace().Ops)
	}
	if recorded != got {
		t.Errorf("server recorded %d ops, clients saw %d successful responses", recorded, got)
	}
	if rep := ss.CheckPerObject(0); !rep.OK() {
		t.Errorf("per-object check after drain: %+v", rep)
	}
}

// TestDrainKeepsOneBudget pins the drain deadline: with an operation in
// flight that outlives the budget, Drain returns its timeout error within
// the one budget it was given — the cluster gets what the in-flight wait
// left over, not a fresh timeout per phase — at M = 1 and at M > 1.
func TestDrainKeepsOneBudget(t *testing.T) {
	const budget = 300 * time.Millisecond
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("M=%d", shards), func(t *testing.T) {
			cfg := testShardConfig(2, shards)
			cfg.Tick = time.Second // every operation outlives the budget
			ss, err := NewShardSet(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ss.Start()
			key := ""
			if shards > 1 {
				key = "a"
			}
			called := make(chan error, 1)
			go func() {
				_, _, err := ss.route(key, adt.OpEnqueue, 1, -1)
				called <- err
			}()
			inflight := ss.Shard(ss.ShardFor(key)).obsm.inflight
			for inflight.Value() == 0 {
				time.Sleep(time.Millisecond)
			}
			start := time.Now()
			err = ss.Drain(budget)
			if took := time.Since(start); took >= budget*3/2 {
				t.Errorf("Drain(%v) returned after %v", budget, took)
			}
			if err == nil {
				t.Error("Drain with an outliving operation in flight returned nil")
			}
			if err := <-called; err == nil {
				t.Error("the outliving operation succeeded after its cluster stopped")
			}
		})
	}
}

// TestCallKeyAllocs pins the in-process serving call's allocation floor:
// one CallKey through the router, a shard's replica queue, rtnet and the
// n = 5 Algorithm 1 replicas, counted over the whole process, so the
// replicas' handlers and timers are included. The floor was ≈ 54 while op
// validation re-derived the keyed type, keyed states copied a map on every
// mutation and each hop made a fresh reply channel.
func TestCallKeyAllocs(t *testing.T) {
	cfg := testShardConfig(5, 4)
	cfg.Tick = 50 * time.Microsecond
	ss, err := NewShardSet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss.Start()
	t.Cleanup(func() { ss.Drain(30 * time.Second) })
	keys := []string{"a", "b", "c", "d"} // one per shard (TestShardForPinned)
	ops := []struct {
		op  string
		arg any
	}{{adt.OpEnqueue, 1}, {adt.OpPeek, nil}, {adt.OpDequeue, nil}}
	i := 0
	call := func() {
		o := ops[i%len(ops)]
		if _, err := ss.CallKey(keys[i%len(keys)], o.op, o.arg); err != nil {
			t.Fatal(err)
		}
		i++
	}
	// The cheapest of a few batches: a batch that a GC cycle or a stray
	// runtime allocation lands in reads high.
	best := math.Inf(1)
	for b := 0; b < 5; b++ {
		best = min(best, testing.AllocsPerRun(24, call))
	}
	t.Logf("CallKey: %.1f allocs per call", best)
	if best > 25 {
		t.Errorf("CallKey: %.1f allocs per call, ceiling 25", best)
	}
}

// TestMetricNamesPinned pins the series names, not values, that an M = 1
// and an M = 4 deployment export besides obs.Default: the single object
// keeps every historical unlabeled name next to the router's own, and
// each shard of a larger deployment its shard-labelled ones. Dashboards
// and `lintime stat` read these names, so a change must be deliberate.
func TestMetricNamesPinned(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("M=%d", shards), func(t *testing.T) {
			ss, err := NewShardSet(testShardConfig(3, shards))
			if err != nil {
				t.Fatal(err)
			}
			snap := obs.TakeSnapshot(ss.Registries()...)
			var names []string
			for kind, series := range map[string]map[string]int64{"counter": snap.Counters, "gauge": snap.Gauges} {
				for name := range series {
					names = append(names, kind+" "+name)
				}
			}
			for name := range snap.Hists {
				names = append(names, "hist "+name)
			}
			sort.Strings(names)
			want, err := os.ReadFile(fmt.Sprintf("testdata/metric-names-m%d.txt", shards))
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(names, "\n") + "\n"; got != string(want) {
				t.Errorf("series names differ from testdata/metric-names-m%d.txt; got:\n%s", shards, got)
			}
		})
	}
}

// TestMisroutedWriteCaught proves the composition checker detects the
// invariant whose violation breaks per-object linearizability: a write
// landing on a shard that is not its key's home. The mutant routes one
// hot key's operations to the wrong cluster; the checker must flag every
// one of them as routing violations.
func TestMisroutedWriteCaught(t *testing.T) {
	ss, err := NewShardSet(testShardConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Drain(30 * time.Second)
	const hot = "hot" // home shard 0 under the pinned mapping
	home := ss.ShardFor(hot)
	ss.SetMisroute(func(key string, shard int) int {
		if key == hot {
			return 1 - shard // deliberate fault: send hot's ops to the other cluster
		}
		return shard
	})
	ss.Start()
	for n := 0; n < 3; n++ {
		if _, err := ss.CallKey(hot, adt.OpEnqueue, n); err != nil {
			t.Fatal(err)
		}
		if _, err := ss.CallKey("b", adt.OpEnqueue, n); err != nil { // home shard 1, routed honestly
			t.Fatal(err)
		}
	}
	rep := ss.CheckPerObject(0)
	if rep.OK() {
		t.Fatal("checker missed the misrouted writes")
	}
	if len(rep.RoutingViolations) != 3 {
		t.Fatalf("flagged %d violations, want 3: %+v", len(rep.RoutingViolations), rep.RoutingViolations)
	}
	for _, v := range rep.RoutingViolations {
		if v.Key != hot || v.HomeShard != home || v.Shard == home {
			t.Errorf("violation %+v, want key %q home %d served elsewhere", v, hot, home)
		}
	}
}

func TestRunLoadShardedZipf(t *testing.T) {
	ss := startShardSet(t, 3, 4)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj-%d", i)
	}
	shardParams := make([]simtime.Params, ss.Shards())
	for i := range shardParams {
		shardParams[i] = ss.Shard(i).Config().Params
	}
	sum, err := RunLoad(ss, ss.Type(), ss.Config().Params, ss.Config().Tick, LoadConfig{
		Clients:      4,
		OpsPerClient: 8,
		Seed:         11,
		Keys:         keys,
		Zipf:         1.5,
		ShardParams:  shardParams,
		Mix: []harness.OpPick{
			{Op: adt.OpEnqueue, Weight: 2},
			{Op: adt.OpDequeue, Weight: 1},
			{Op: adt.OpPeek, Weight: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalOps != 4*8 {
		t.Errorf("total ops = %d, want 32", sum.TotalOps)
	}
	if sum.Config.Shards != 4 || sum.Config.KeyCount != 16 || sum.Config.Zipf != 1.5 {
		t.Errorf("config echo = %+v", sum.Config)
	}
	if len(sum.PerShard) != 4 {
		t.Fatalf("per-shard reports = %d, want 4", len(sum.PerShard))
	}
	shardOps := 0
	for _, sh := range sum.PerShard {
		shardOps += sh.Ops
	}
	if shardOps != sum.TotalOps {
		t.Errorf("shard ops sum to %d, want %d", shardOps, sum.TotalOps)
	}
	// Zipf with s=1.5 concentrates on rank 0 (≈43% of draws land on
	// keys[0]): the hot key's home shard must carry more than an even
	// split. Deterministic given the fixed seed.
	hot := ShardFor(keys[0], 4)
	if sum.PerShard[hot].Ops*4 <= sum.TotalOps {
		t.Errorf("hot shard %d carried %d of %d ops, want more than an even split",
			hot, sum.PerShard[hot].Ops, sum.TotalOps)
	}
	if !sum.SLOMet() {
		t.Error("sharded SLO not met")
	}
	if sum.ElapsedMS < 0 {
		t.Errorf("elapsed = %d ms", sum.ElapsedMS)
	}
	if rep := ss.CheckPerObject(0); !rep.OK() {
		t.Errorf("per-object check after load: %+v", rep)
	}
}

// TestRunLoadKeyedNeedsKeyedTarget: a keyed run needs a deployment of
// named objects — the M = 1 router refuses the keys — and no empty key.
func TestRunLoadKeyedNeedsKeyedTarget(t *testing.T) {
	s := startShardSet(t, 2, 1)
	if _, err := RunLoad(s, s.Type(), s.Config().Params, s.Config().Tick, LoadConfig{
		Clients: 1, OpsPerClient: 1, Keys: []string{"a"},
	}); err == nil || !strings.Contains(err.Error(), "single-object server") {
		t.Errorf("keyed load against a single object = %v, want the topology error", err)
	}
	ss := startShardSet(t, 2, 2)
	if _, err := RunLoad(ss, ss.Type(), ss.Config().Params, ss.Config().Tick, LoadConfig{
		Clients: 1, OpsPerClient: 1, Keys: []string{""},
	}); err == nil {
		t.Error("empty key in key set should error")
	}
}

// TestRunLoadMeasuredWindow pins the deadline-drift fix: the measurement
// window opens after setup, so a duration-based run issues operations
// for at least the configured duration and reports the window it
// actually measured.
func TestRunLoadMeasuredWindow(t *testing.T) {
	s := startShardSet(t, 2, 1)
	const want = 300 * time.Millisecond
	startT := time.Now()
	sum, err := RunLoad(s, s.Type(), s.Config().Params, s.Config().Tick, LoadConfig{
		Clients: 2, Duration: want, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(startT); wall < want {
		t.Errorf("run returned after %v, configured duration %v", wall, want)
	}
	if sum.ElapsedMS < want.Milliseconds() {
		t.Errorf("elapsed = %d ms, want ≥ %d", sum.ElapsedMS, want.Milliseconds())
	}
	if sum.TotalOps > 0 && sum.OpsPerSec <= 0 {
		t.Errorf("ops/sec = %v with %d ops", sum.OpsPerSec, sum.TotalOps)
	}
}
