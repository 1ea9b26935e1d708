package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lintime/internal/adt"
	"lintime/internal/harness"
	"lintime/internal/lincheck"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// TestSoakSharded is the sharded counterpart of TestSoakClosedLoop: a
// sustained keyed workload across a 3-shard deployment, with the
// composition argument checked end to end —
//
//   - routing invariant: every recorded operation sits on its key's
//     home shard (checked for the full soak),
//   - per-object linearizability: each object's history, projected from
//     its home shard's trace, linearizes against the base type,
//   - graceful drain completes every accepted operation fleet-wide.
//
// The phase segmentation trick carries over per object: at each phase
// boundary the load pauses, every shard quiesces, and each object's
// queue is sequentially dequeued to empty — so each object's per-phase
// segment is independently checkable from the initial state. Because
// shards run disjoint key sets on disjoint clusters, phases only need
// each shard's own quiescence; no cross-shard clock comparison is ever
// made (the shards' virtual timebases share no epoch).
func TestSoakSharded(t *testing.T) {
	before := runtime.NumGoroutine()
	const (
		clients = 8
		shards  = 3
	)
	// Key set chosen to cover all three shards under the pinned FNV-1a
	// mapping: a,b→1, c,e→0, g,k→2.
	keys := []string{"a", "b", "c", "e", "g", "k"}
	u := simtime.Duration(20)
	cfg := ShardSetConfig{
		Config: Config{
			Params: simtime.Params{
				N: 3, D: 40, U: u,
				Epsilon: simtime.OptimalEpsilon(3, u), X: 10,
			},
			TypeName: "queue",
			Tick:     time.Millisecond,
			Offsets:  harness.OffSpread,
			Seed:     43,
		},
		Shards: shards,
		// Heterogeneous tuning on purpose: the composition must hold with
		// each cluster running its own accessor/mutator trade-off.
		ShardX: []simtime.Duration{5, 10, 20},
	}
	ss, err := NewShardSet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss.Start()
	settle := time.Duration(cfg.Params.D+cfg.Params.Epsilon)*cfg.Tick + 50*time.Millisecond

	var submitted atomic.Int64
	runPhase := func(phase int, dur time.Duration) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(
					harness.DeriveSeed(cfg.Seed, fmt.Sprintf("soak/shard/%d/client/%d", phase, c))))
				next := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					key := keys[rng.Intn(len(keys))]
					var err error
					switch rng.Intn(6) {
					case 0, 1:
						next++
						_, err = ss.CallKey(key, adt.OpEnqueue, (phase*clients+c)*1_000_000+next)
					case 2, 3, 4:
						_, err = ss.CallKey(key, adt.OpDequeue, nil)
					default:
						_, err = ss.CallKey(key, adt.OpPeek, nil)
					}
					if err != nil {
						t.Errorf("sharded soak phase %d client %d: %v", phase, c, err)
						return
					}
					submitted.Add(1)
				}
			}()
		}
		time.Sleep(dur)
		close(stop)
		wg.Wait()
		// Quiesce every shard, then drain every object to empty so the
		// phase boundary pins each object at its initial state.
		time.Sleep(settle)
		for _, key := range keys {
			for {
				r, err := ss.CallKey(key, adt.OpDequeue, nil)
				if err != nil {
					t.Fatalf("sharded soak phase %d drain of %q: %v", phase, key, err)
				}
				submitted.Add(1)
				if spec.ValuesEqual(r.Ret, adt.EmptyMarker) {
					break
				}
			}
		}
	}

	total := soakDuration()
	const phaseLen = time.Second
	cuts := make([][]int, shards) // per shard: recorded-op count at each boundary
	start := time.Now()
	for phase := 0; ; phase++ {
		remaining := total - time.Since(start)
		if remaining <= 0 && phase > 0 {
			break
		}
		dur := phaseLen
		if remaining < dur {
			dur = remaining
		}
		if dur < 200*time.Millisecond {
			dur = 200 * time.Millisecond
		}
		runPhase(phase, dur)
		for i := 0; i < shards; i++ {
			cuts[i] = append(cuts[i], len(ss.Shard(i).Trace().Ops))
		}
		if t.Failed() {
			break
		}
	}

	if err := ss.Drain(60 * time.Second); err != nil {
		t.Fatalf("sharded graceful drain failed: %v", err)
	}

	recorded := 0
	for i := 0; i < shards; i++ {
		recorded += len(ss.Shard(i).Trace().Ops)
	}
	if got, want := int64(recorded), submitted.Load(); got != want {
		t.Errorf("recorded %d ops fleet-wide, submitted %d: drain lost operations", got, want)
	}
	if recorded == 0 {
		t.Fatal("sharded soak recorded no operations")
	}

	// Routing invariant over the whole soak (and full per-object check —
	// cheap relative to the segmented pass, and a second witness).
	if rep := ss.CheckPerObject(0); !rep.OK() {
		t.Fatalf("per-object check over the full soak: %d routing violations, non-linearizable %v",
			len(rep.RoutingViolations), rep.NonLinearizable)
	}

	// Phase-segmented per-object check: shard by shard, phase by phase,
	// project each object's history and check it against the base type.
	inner := ss.Type()
	checked := 0
	for i := 0; i < shards; i++ {
		tr := ss.Shard(i).Trace()
		prev := 0
		for k, cut := range cuts[i] {
			segment := tr.Ops[prev:cut]
			prev = cut
			perKey := map[string][]sim.OpRecord{}
			for _, op := range segment {
				key, innerArg, ok := adt.SplitKeyArg(op.Arg)
				if !ok {
					t.Fatalf("shard %d phase %d: unkeyed record %+v", i, k, op)
				}
				if home := ss.ShardFor(key); home != i {
					t.Fatalf("shard %d phase %d: op on key %q homed at %d", i, k, key, home)
				}
				proj := op
				proj.Arg = innerArg
				perKey[key] = append(perKey[key], proj)
			}
			for key, ops := range perKey {
				seg := &sim.Trace{Params: tr.Params, Offsets: tr.Offsets, Ops: ops}
				if !lincheck.CheckTraceParallel(inner, seg, runtime.NumCPU()).Linearizable {
					t.Errorf("shard %d phase %d object %q: %d-op history NOT linearizable",
						i, k, key, len(ops))
				}
				checked++
			}
		}
	}
	t.Logf("sharded soak: %d ops over %d shards, %d object-phase segments checked, per-shard ops: %v",
		recorded, shards, checked, func() []int {
			out := make([]int, shards)
			for i := range out {
				out[i] = len(ss.Shard(i).Trace().Ops)
			}
			return out
		}())

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		} else if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d before soak, %d after drain", before, runtime.NumGoroutine())
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
}
