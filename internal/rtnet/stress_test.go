package rtnet

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"lintime/internal/adt"
	"lintime/internal/harness"
	"lintime/internal/sim"
	"lintime/internal/spec"
)

// TestDrainCompletesPending: Drain must let every in-flight invocation
// respond before stopping the scheduler, and be idempotent with Stop.
func TestDrainCompletesPending(t *testing.T) {
	c, _ := newQueueCluster(t, 3)
	c.Start()
	resps := make([]<-chan Response, 3)
	for p := 0; p < 3; p++ {
		ch, err := c.Invoke(sim.ProcID(p), adt.OpEnqueue, p)
		if err != nil {
			t.Fatalf("invoke at p%d: %v", p, err)
		}
		resps[p] = ch
	}
	if err := c.Drain(30 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for p, ch := range resps {
		select {
		case r := <-ch:
			if r.Op != adt.OpEnqueue {
				t.Errorf("proc %d response op = %q", p, r.Op)
			}
		default:
			t.Errorf("proc %d invocation did not complete before Drain returned", p)
		}
	}
	if n := c.Pending(); n != 0 {
		t.Errorf("%d operations still pending after drain", n)
	}
	c.Stop() // idempotent after Drain's internal Stop
}

// TestDrainTimeout: a drain with pending work that cannot complete in
// time must stop the cluster anyway and report the stragglers.
func TestDrainTimeout(t *testing.T) {
	c, _ := newQueueCluster(t, 2)
	c.Start()
	if _, err := c.Invoke(0, adt.OpEnqueue, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(0); err == nil {
		t.Error("drain with zero timeout and pending work should error")
	}
}

// TestSendRngDerivation pins the documented seeding of the per-process
// delay streams: process i draws from DeriveSeed(seed, "rtnet/send/p<i>"),
// so a process's delay sequence is a pure function of (seed, process) —
// independent of how the other processes are scheduled.
func TestSendRngDerivation(t *testing.T) {
	c, _ := newQueueCluster(t, 3)
	for i, rng := range c.net.rngs {
		want := rand.New(rand.NewSource(harness.DeriveSeed(99, fmt.Sprintf("rtnet/send/p%d", i))))
		for k := 0; k < 8; k++ {
			if got, exp := rng.Int63(), want.Int63(); got != exp {
				t.Fatalf("proc %d draw %d = %d, want %d", i, k, got, exp)
			}
		}
	}
}

// TestStressSequentialPerProcess hammers a 5-replica cluster with the
// one-pending-op-per-process workload the serving layer produces: one
// goroutine per process issuing back-to-back mixed operations. Every
// call must respond; a hung call here means a response was lost in the
// replica/timer machinery.
func TestStressSequentialPerProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	c, _ := newQueueCluster(t, 5)
	c.Start()
	defer c.Stop()

	const dur = 2 * time.Second
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for p := 0; p < 5; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(harness.DeriveSeed(5, fmt.Sprintf("stress/%d", p))))
			next := 0
			for n := 0; time.Now().Before(deadline); n++ {
				var op string
				var arg any
				switch rng.Intn(5) {
				case 0, 1:
					next++
					op, arg = adt.OpEnqueue, p*1_000_000+next
				case 2, 3:
					op = adt.OpDequeue
				default:
					op = adt.OpPeek
				}
				ch, err := c.Invoke(sim.ProcID(p), op, arg)
				if err != nil {
					t.Errorf("proc %d op %d (%s): %v", p, n, op, err)
					return
				}
				select {
				case <-ch:
				case <-time.After(10 * time.Second):
					t.Errorf("proc %d op %d (%s) never responded; %d cluster-wide pending, %d live timers",
						p, n, op, c.Pending(), c.timerCount())
					return
				}
			}
		}()
	}
	wg.Wait()

	// Quiesce, then drain the queue to empty the way the serving soak's
	// phase boundaries do: sequential dequeues round-robin across
	// processes on an otherwise idle cluster.
	p := rtParams(5)
	time.Sleep(time.Duration(p.D+p.Epsilon)*tick + 50*time.Millisecond)
	for i := 0; ; i++ {
		ch, err := c.Invoke(sim.ProcID(i%5), adt.OpDequeue, nil)
		if err != nil {
			t.Fatalf("drain dequeue %d at proc %d: %v", i, i%5, err)
		}
		select {
		case r := <-ch:
			if spec.ValuesEqual(r.Ret, adt.EmptyMarker) {
				return
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("drain dequeue %d at proc %d never responded; %d pending, %d live timers",
				i, i%5, c.Pending(), c.timerCount())
		}
	}
}
