package serve

import (
	"flag"
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

// soakFlag overrides the soak duration: `go test ./internal/serve/ -soak 30s`
// is the full race-hardened soak (make soak); CI's short-soak job runs 5s
// (make soak-smoke). The default keeps plain `go test ./...` fast.
var soakFlag = flag.Duration("soak", 0, "soak test duration (0 = 3s default, 1s under -short)")

func soakDuration() time.Duration {
	if *soakFlag > 0 {
		return *soakFlag
	}
	if testing.Short() {
		return time.Second
	}
	return 3 * time.Second
}

// TestSoakClosedLoop runs a sustained closed-loop mixed workload against
// an in-process 5-replica cluster and asserts the serving layer's core
// guarantees end to end:
//
//   - the recorded wall-clock history is linearizable (zero lincheck
//     violations over the whole soak),
//   - graceful shutdown completes every accepted operation (submitted
//     count == recorded count, drain returns nil),
//   - nothing leaks: goroutine count returns to its pre-soak level.
//
// Run it under -race (make soak-smoke / make soak): the closed-loop
// clients, the per-replica slots, the recorder and the drain
// path all interleave here, which is exactly where a shared-state race
// would surface.
//
// The soak is split into phases so the linearizability check scales: a
// full-day history is not checkable in one piece, because the relative
// order of two concurrent enqueues stays ambiguous until their values are
// dequeued, which may be thousands of operations later — worst-case
// exponential backtracking for the checker. At each phase boundary the
// load pauses, the cluster quiesces (all responses in, plus a d+ε settle
// so every mutator has executed), and a single client sequentially
// dequeues until the queue answers nil. That last nil dequeue is the
// real-time-latest operation of the phase, so in every linearization the
// phase ends with an empty queue — each phase is therefore independently
// checkable from the initial state, and the concatenation of per-phase
// witnesses is a linearization of the whole soak. A vanished element
// (enqueued, never dequeued, queue claims empty) still fails the check,
// exactly as it should.
func TestSoakClosedLoop(t *testing.T) {
	before := runtime.NumGoroutine()
	const clients = 10
	u := simtime.Duration(20)
	cfg := Config{
		Params: simtime.Params{
			N: 5, D: 40, U: u,
			Epsilon: simtime.OptimalEpsilon(5, u), X: 10,
		},
		TypeName: "queue",
		Tick:     time.Millisecond,
		Offsets:  harness.OffSpread,
		Seed:     42,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	settle := time.Duration(cfg.Params.D+cfg.Params.Epsilon)*cfg.Tick + 50*time.Millisecond

	var submitted atomic.Int64
	runPhase := func(phase int, dur time.Duration) {
		// Closed-loop clients with a mixed op-class workload: enqueue
		// (MOP), peek (AOP), dequeue (OOP). Values are distinct per
		// client so the linearizability check has unambiguous matches.
		// The mix is dequeue-heavy on purpose: the checker's cost is
		// driven by how long concurrent enqueues stay order-ambiguous,
		// and a dequeue resolves the order of the value it returns.
		// Keeping the queue hugging empty means wrong search guesses
		// fail within a few operations instead of compounding.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(
					harness.DeriveSeed(cfg.Seed, fmt.Sprintf("soak/phase/%d/client/%d", phase, c))))
				next := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					var err error
					switch rng.Intn(6) {
					case 0, 1:
						next++
						_, err = s.Call(adt.OpEnqueue, (phase*clients+c)*1_000_000+next)
					case 2, 3, 4:
						_, err = s.Call(adt.OpDequeue, nil)
					default:
						_, err = s.Call(adt.OpPeek, nil)
					}
					if err != nil {
						t.Errorf("soak phase %d client %d: %v", phase, c, err)
						return
					}
					submitted.Add(1)
				}
			}()
		}
		time.Sleep(dur)
		close(stop)
		wg.Wait()
		// Quiesce, then drain the queue to empty so the phase boundary is
		// a known (initial) state: sequential dequeues are the real-time-
		// latest operations, so an "empty" response pins the final state.
		time.Sleep(settle)
		for {
			r, err := s.Call(adt.OpDequeue, nil)
			if err != nil {
				t.Fatalf("soak phase %d drain dequeue: %v", phase, err)
			}
			submitted.Add(1)
			if spec.ValuesEqual(r.Ret, adt.EmptyMarker) {
				break
			}
		}
	}

	total := soakDuration()
	const phaseLen = time.Second
	var cuts []int // recorded-op count at each phase boundary
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
		cuts = append(cuts, len(s.Trace().Ops))
		if t.Failed() {
			break
		}
	}

	if err := s.Drain(60 * time.Second); err != nil {
		t.Fatalf("graceful drain failed: %v", err)
	}

	tr := s.Trace()
	if got, want := int64(len(tr.Ops)), submitted.Load(); got != want {
		t.Errorf("recorded %d ops, submitted %d: drain lost operations", got, want)
	}
	if len(tr.Ops) == 0 {
		t.Fatal("soak recorded no operations")
	}
	for i, op := range tr.Ops {
		if op.Pending() {
			t.Fatalf("op %d (%s) still pending after drain", i, op.Op)
		}
	}

	dt, _ := adt.Lookup(cfg.TypeName)
	prev := 0
	for k, cut := range cuts {
		segment := tr.Ops[prev:cut]
		prev = cut
		if len(segment) == 0 {
			continue
		}
		seg := &sim.Trace{Params: tr.Params, Offsets: tr.Offsets, Ops: segment}
		res := lincheck.CheckTraceParallel(dt, seg, runtime.NumCPU())
		if !res.Linearizable {
			t.Errorf("soak phase %d history of %d ops is NOT linearizable", k, len(segment))
		}
	}
	t.Logf("soak: %d ops in %d phases over %v, per-class stats: %+v",
		len(tr.Ops), len(cuts), total, s.Stats().PerClass)

	// Goroutine-leak check: node loops, the scheduler and timer
	// callbacks must all be gone. Allow the runtime a moment to reap.
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
