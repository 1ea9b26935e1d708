package rtnet

import (
	"errors"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"lintime/internal/sim"
	"lintime/internal/simtime"
)

// timerCluster builds a cluster whose process i answers every invocation
// from a timer delays[i] ticks out.
func timerCluster(t *testing.T, tick time.Duration, delays ...simtime.Duration) *Cluster {
	t.Helper()
	n := len(delays)
	nodes := make([]sim.Node, n)
	for i, d := range delays {
		nodes[i] = &timerNode{delay: d}
	}
	p := simtime.Params{N: n, D: 40, U: 20, Epsilon: 10, X: 10}
	c, err := NewCluster(Params{Params: p}, tick, sim.ZeroOffsets(n), nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// returnsWithin fails the test unless f returns within the limit, and
// reports how long it took.
func returnsWithin(t *testing.T, limit time.Duration, what string, f func()) time.Duration {
	t.Helper()
	begin := time.Now()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("%s: still blocked after %v", what, limit)
	}
	return time.Since(begin)
}

// TestWaitPokeContract pins the scheduler's sleep on whichever build this
// is: a deadline already behind is no sleep at all (a negative remaining
// wait read as "no timeout" hung the cluster), a deadline ahead is slept
// out, a poke ends an unbounded wait, and a poke made while nobody waits
// ends the next one.
func TestWaitPokeContract(t *testing.T) {
	c := timerCluster(t, tick, 1)
	c.start = time.Now().Add(-time.Second) // the timeline reads 1 s; no scheduler is running
	const limit = 10 * time.Second

	returnsWithin(t, limit, "deadline 0.5 s in the past", func() { c.wait(simtime.Time(500 * time.Millisecond)) })
	returnsWithin(t, limit, "deadline at this instant", func() { c.wait(c.elapsed()) })

	if took := returnsWithin(t, limit, "deadline 20 ms ahead", func() { c.wait(c.elapsed() + simtime.Time(20*time.Millisecond)) }); took < 20*time.Millisecond {
		t.Errorf("a 20 ms wait returned after %v", took)
	}

	entered := make(chan struct{})
	go func() {
		<-entered
		time.Sleep(20 * time.Millisecond)
		c.poke()
	}()
	if took := returnsWithin(t, limit, "poke during an unbounded wait", func() { close(entered); c.wait(simtime.Infinity) }); took < 20*time.Millisecond {
		t.Errorf("an unbounded wait returned after %v, before the poke", took)
	}

	c.poke()
	c.poke()
	returnsWithin(t, limit, "poke before an unbounded wait", func() { c.wait(simtime.Infinity) })
	// Both pokes were consumed by that one wait: the next is a real sleep.
	if took := returnsWithin(t, limit, "wait after the pokes were consumed", func() { c.wait(c.elapsed() + simtime.Time(20*time.Millisecond)) }); took < 20*time.Millisecond {
		t.Errorf("a consumed poke ended the next wait after %v", took)
	}
}

// TestInvokeMovesDeadlineForward: the scheduler sleeps toward a timer 2 s
// out; an invocation at another process registers a timer 5 ms out. Its
// caller dispatched the invocation, so the only thing that can fire the
// new timer on time is the "deadline moved forward" poke.
func TestInvokeMovesDeadlineForward(t *testing.T) {
	c := timerCluster(t, tick, 2000, 5)
	c.Start()
	defer c.Stop()
	far, err := c.Invoke(0, "far", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the scheduler has recorded the far deadline as the one it
	// sleeps toward.
	for begin := time.Now(); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		until := c.sleepUntil
		c.mu.Unlock()
		if until >= simtime.Time(1900*time.Millisecond) && until != simtime.Infinity {
			break
		}
		if time.Since(begin) > 10*time.Second {
			t.Fatalf("scheduler never slept toward the far timer (sleepUntil %v)", until)
		}
	}
	begin := time.Now()
	r := mustCall(t, c, 1, "near", nil)
	if took := time.Since(begin); took > 500*time.Millisecond {
		t.Fatalf("a 5 ms timer fired after %v: the scheduler slept on toward the later deadline", took)
	}
	if r.Latency() < 5 {
		t.Fatalf("5-tick timer fired after %d ticks", r.Latency())
	}
	select {
	case <-far:
		t.Fatal("the 2 s timer fired early")
	default:
	}
}

// TestConcurrentInvokersLoseNoWakeup: 64 closed-loop callers, each its
// own process, against a scheduler that sleeps between their short
// timers. Callers dispatch their own invocations and poke only when the
// deadline moved forward; a poke skipped or lost when it was needed
// leaves a timer unfired and its caller blocked.
func TestConcurrentInvokersLoseNoWakeup(t *testing.T) {
	if testing.Short() {
		t.Skip("2 s of live load")
	}
	const callers = 64
	delays := make([]simtime.Duration, callers)
	for i := range delays {
		delays[i] = simtime.Duration(i % 5) // 0 included: due the instant it is registered
	}
	c := timerCluster(t, 200*time.Microsecond, delays...)
	c.Start()
	defer c.Stop()
	deadline := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	for p := 0; p < callers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline); n++ {
				ch, err := c.Invoke(sim.ProcID(p), "op", nil)
				if err != nil {
					t.Errorf("proc %d op %d: %v", p, n, err)
					return
				}
				select {
				case <-ch:
				case <-time.After(10 * time.Second):
					t.Errorf("proc %d op %d never responded: a wake-up was lost (%d pending, %d live timers)",
						p, n, c.Pending(), c.timerCount())
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if n := c.Pending(); n != 0 {
		t.Fatalf("%d operations pending after every caller returned", n)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// openFiles counts the process's descriptors, or reports false where
// /proc is absent.
func openFiles() (int, bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	return len(ents), err == nil
}

// TestSleepReleasedByStop: whatever the scheduler's sleep owns is gone
// after Stop, started or not, and a poke after Stop is harmless.
func TestSleepReleasedByStop(t *testing.T) {
	cycle := func(start bool) *Cluster {
		c := timerCluster(t, 20*time.Microsecond, 1, 1)
		if start {
			c.Start()
			mustCall(t, c, 0, "op", nil)
		}
		c.Stop()
		c.poke()
		return c
	}
	cycle(true) // whatever the runtime itself opens lazily is open now
	goroutines := runtime.NumGoroutine()
	files, countFiles := openFiles()
	for i := 0; i < 2000; i++ {
		cycle(i%4 != 0)
	}
	// A scheduler goroutine that has closed done may not have left the
	// runtime's count yet.
	for begin := time.Now(); runtime.NumGoroutine() > goroutines && time.Since(begin) < 5*time.Second; {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("goroutines: %d before 2000 cycles, %d after", goroutines, got)
	}
	if got, _ := openFiles(); countFiles && got > files {
		t.Errorf("descriptors: %d before 2000 cycles, %d after", files, got)
	}
	c := cycle(true)
	if _, err := c.Invoke(0, "op", nil); !errors.Is(err, ErrStopped) {
		t.Errorf("invoke after Stop and poke: %v, want ErrStopped", err)
	}
}
