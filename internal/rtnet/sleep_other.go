//go:build !linux

package rtnet

import (
	"time"

	"lintime/internal/simtime"
)

// sleeper is the scheduler's interruptible sleep where there is no futex:
// one time.Timer and a wake channel. The runtime rounds the timer to its
// poller's resolution (whole milliseconds when the process is idle).
type sleeper struct {
	wake  chan struct{} // cap 1: a poke no wait has consumed
	timer *time.Timer   // the scheduler's own; stopped whenever it is not in a timed wait
}

func newSleeper() sleeper { return sleeper{wake: make(chan struct{}, 1), timer: time.NewTimer(0)} }

// wait blocks until deadline on the cluster's timeline (forever when it
// is simtime.Infinity) or until a poke, whichever is first; a poke made
// since the previous wait returned ends it at once. A deadline already
// behind means no sleep at all. Scheduler goroutine only.
func (c *Cluster) wait(deadline simtime.Time) {
	var expired <-chan time.Time
	if deadline != simtime.Infinity {
		left := time.Duration(deadline - c.elapsed())
		if left <= 0 {
			return
		}
		select {
		case <-c.sleep.timer.C: // left by newSleeper, or by a wait a poke cut short as the timer fired
		default:
		}
		c.sleep.timer.Reset(left)
		defer c.sleep.timer.Stop()
		expired = c.sleep.timer.C
	}
	select {
	case <-expired:
	case <-c.sleep.wake:
	}
}

// poke ends the scheduler's current wait, or its next one if it is not in
// one. Any goroutine; harmless before Start and after Stop.
func (c *Cluster) poke() {
	select {
	case c.sleep.wake <- struct{}{}:
	default:
	}
}
