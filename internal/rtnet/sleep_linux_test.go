//go:build linux

package rtnet

import (
	"sort"
	"testing"
	"time"

	"lintime/internal/sim"
	"lintime/internal/simtime"
)

// lateNode answers an invocation from a timer arg ticks out and records
// how long after its deadline the timer fired.
type lateNode struct {
	tick    time.Duration
	seq     int64
	invoked time.Time
	wait    simtime.Duration
	late    *[]time.Duration
}

func (n *lateNode) Init(sim.Context) {}
func (n *lateNode) OnInvoke(ctx sim.Context, inv sim.Invocation) {
	n.seq, n.invoked, n.wait = inv.SeqID, time.Now(), inv.Arg.(simtime.Duration)
	ctx.SetTimer(n.wait, nil)
}
func (n *lateNode) OnMessage(sim.Context, sim.ProcID, any) {}
func (n *lateNode) OnTimer(ctx sim.Context, _ any) {
	*n.late = append(*n.late, time.Since(n.invoked)-time.Duration(n.wait)*n.tick)
	ctx.Respond(n.seq, nil)
}

// TestTimerPrecisionIdle is the regression test for the scheduler's
// sleep: in an otherwise idle process, timers 0.3, 1.2 and 2.4 ms out
// fire within 300 µs of their deadline in the median. A time.Timer sleep
// parks the idle runtime in epoll_wait, whose timeout is whole
// milliseconds, and measures 0.5–0.9 ms here; the futex wait ≈ 0.1 ms.
// Best of three attempts, because the host may be busy.
func TestTimerPrecisionIdle(t *testing.T) {
	const tick = 100 * time.Microsecond
	const limit = 300 * time.Microsecond
	var median time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		var late []time.Duration
		nodes := []sim.Node{&lateNode{tick: tick, late: &late}, &lateNode{tick: tick, late: &late}}
		p := simtime.Params{N: 2, D: 40, U: 20, Epsilon: 10, X: 10}
		c, err := NewCluster(Params{Params: p}, tick, sim.ZeroOffsets(2), nodes, 1)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		for i := 0; i < 90; i++ {
			mustCall(t, c, sim.ProcID(i%2), "wait", []simtime.Duration{3, 12, 24}[i%3])
			// Let the process go idle, and move the phase against the
			// millisecond boundaries the old sleep rounded to.
			time.Sleep(time.Duration(1000+37*(i%20)) * time.Microsecond)
		}
		c.Stop() // orders the handlers' appends before the read below
		sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
		median = late[len(late)/2]
		t.Logf("attempt %d: timer lateness min %v median %v max %v (n=%d)", attempt, late[0], median, late[len(late)-1], len(late))
		if median <= limit {
			return
		}
	}
	t.Fatalf("median timer lateness %v on an idle cluster, want ≤ %v", median, limit)
}
