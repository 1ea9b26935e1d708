package sim

import (
	"fmt"

	"lintime/internal/obs"
	"lintime/internal/simtime"
)

// crashesInjected counts crashes on engines that have no metric sink of
// their own (harness, fuzzer and model-checker runs).
var crashesInjected = obs.Default.Counter("crashes_injected")

// FaultPlan describes the fault axes of one run: per-process crash times
// and per-message loss. Both axes extend the explicit delay-vector
// adversary format — a crash is one scheduled tick after which a process
// neither sends nor receives, and a drop names a send ordinal that is
// lost in transit.
//
// The crash model is crash-stop: a crashed process takes no further
// steps. Events already scheduled at a crashed process are consumed
// silently (deliveries are marked Dropped in the trace, timers and
// invocations vanish), and since a crashed process never handles an
// event it never sends after its crash time.
type FaultPlan struct {
	// Crashes holds one crash time per process (simtime.Infinity =
	// never crashes). Empty means no crashes.
	Crashes []simtime.Time
	// Drops lists 0-based send ordinals (the engine's global message
	// counter) whose messages are lost in transit: the send happens and
	// is recorded, but no delivery is ever scheduled.
	Drops []int64
}

// NumCrashed returns the number of processes with a finite crash time.
func (f FaultPlan) NumCrashed() int {
	n := 0
	for _, c := range f.Crashes {
		if c != simtime.Infinity {
			n++
		}
	}
	return n
}

// SetFaults installs a fault plan for the next run. Must be called after
// Reset and before the first event is processed; Reset clears any
// installed plan, so pooled engines never inherit a previous run's
// faults.
func (e *Engine) SetFaults(f FaultPlan) error {
	if e.started {
		panic("sim: SetFaults after the run started")
	}
	if len(f.Crashes) != 0 && len(f.Crashes) != e.params.N {
		return fmt.Errorf("sim: %d crash times for N=%d", len(f.Crashes), e.params.N)
	}
	for p, c := range f.Crashes {
		if c < 0 {
			return fmt.Errorf("sim: crash time %v for p%d is negative", c, p)
		}
	}
	for _, ix := range f.Drops {
		if ix < 0 {
			return fmt.Errorf("sim: drop index %d is negative", ix)
		}
	}
	e.crashes = e.crashes[:0]
	for _, c := range f.Crashes {
		if c != simtime.Infinity {
			c *= simtime.Time(e.unit)
		}
		e.crashes = append(e.crashes, c)
	}
	if e.drops == nil {
		e.drops = make(map[int64]bool, len(f.Drops))
	}
	for _, ix := range f.Drops {
		e.drops[ix] = true
	}
	e.trace.Crashes = append([]simtime.Time(nil), f.Crashes...)
	e.trace.Drops = append([]int64(nil), f.Drops...)
	e.countCrashes(f.NumCrashed())
	return nil
}

// countCrashes is the one place injected crashes are counted, planned or
// live.
func (e *Engine) countCrashes(n int) {
	c := crashesInjected
	if e.metrics != nil && e.metrics.Crashes != nil {
		c = e.metrics.Crashes
	}
	c.Add(int64(n))
}

// Crash stops process p at the current instant, mid-run: the same
// crash-stop a FaultPlan schedules ahead of time. From here on p takes no
// step — deliveries to it are dropped, its invocations vanish — and its
// timers are canceled. The crash lands on an event boundary; whatever the
// process sent before is already in flight. Crashing a crashed process is
// a no-op.
func (e *Engine) Crash(p ProcID) {
	if e.Crashed(p) {
		return
	}
	for len(e.crashes) < e.params.N {
		e.crashes = append(e.crashes, simtime.Infinity)
		e.trace.Crashes = append(e.trace.Crashes, simtime.Infinity)
	}
	e.crashes[p], e.trace.Crashes[p] = e.now, e.tick
	for i := range e.queue.items {
		if ev := &e.queue.items[i]; ev.kind == evTimer && ev.proc == p {
			e.cancelTimer(ev.timerID)
		}
	}
	e.countCrashes(1)
}

// Crashed reports whether process p has crashed by now.
func (e *Engine) Crashed(p ProcID) bool { return e.crashedAt(p, e.now) }

// crashedAt reports whether process p has crashed by instant t of the
// timeline.
func (e *Engine) crashedAt(p ProcID, t simtime.Time) bool {
	return len(e.crashes) > 0 && e.crashes[p] != simtime.Infinity && t >= e.crashes[p]
}
