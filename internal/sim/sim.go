// Package sim is a deterministic discrete-event simulator of the paper's
// system model (Section 2.2): n reliable processes communicating over
// reliable point-to-point channels whose delays lie in [d-u, d], with
// drift-free local clocks offset from real time by at most ε from one
// another.
//
// Algorithm replicas implement the Node interface; they are state machines
// triggered by exactly the paper's three event kinds — operation
// invocation, message receipt, and timer expiration — and interact with
// the world only through the Context passed to each handler. Every run is
// recorded as a Trace (timed views, message matching, operation instances)
// so the shifting machinery of Section 2.4 and the linearizability checker
// can operate on it afterwards.
package sim

import (
	"fmt"

	"lintime/internal/obs"
	"lintime/internal/simtime"
)

// ProcID identifies a process, 0 ≤ ProcID < n.
type ProcID int

// TimerID identifies a pending timer so it can be canceled: the engine
// slot its event occupies and that slot's generation when the timer was
// set. A handle outlives its timer harmlessly — once the timer fired or
// was canceled, or its slot went to another event, canceling it is a
// no-op. The zero TimerID names no timer.
type TimerID struct {
	slot int32
	gen  uint32
}

// Invocation is an operation invocation delivered to a node. SeqID is
// unique across the run and must be echoed in the matching Respond call.
type Invocation struct {
	SeqID int64
	Op    string
	Arg   any
}

// Node is an algorithm replica: a state machine triggered by the three
// event kinds of the paper's model. Implementations must interact with
// the system only via the Context methods, and must eventually call
// ctx.Respond exactly once per invocation.
type Node interface {
	// Init runs once per run, before any event is processed, and returns
	// the node to the state it was constructed in: a node set handed to
	// Engine.Reset runs its next schedule exactly as a freshly built one
	// would. Capacity a node keeps for reuse must not change its behaviour.
	Init(ctx Context)
	// OnInvoke handles an operation invocation by the local user.
	OnInvoke(ctx Context, inv Invocation)
	// OnMessage handles receipt of a message from another process.
	OnMessage(ctx Context, from ProcID, payload any)
	// OnTimer handles the expiration of a timer previously set with
	// SetTimer; tag is the value supplied when the timer was set.
	OnTimer(ctx Context, tag any)
}

// Context gives a node access to its environment during one event. It is
// only valid for the duration of the handler call. The engine implements
// it once for both clocks — virtual time here, wall time in
// internal/rtnet — so the same Node runs on either.
type Context interface {
	// ID returns the process id of this node.
	ID() ProcID
	// N returns the number of processes in the system.
	N() int
	// Now returns the current real time. Real time is not observable by
	// correct algorithms; it is exposed for trace annotations and tests.
	// Algorithms must use LocalTime.
	Now() simtime.Time
	// LocalTime returns the process's local clock reading: real time plus
	// the process's constant offset.
	LocalTime() simtime.Time
	// SetTimer schedules a timer to fire after the given local-clock
	// duration (equal to the real duration, since clocks do not drift).
	// It returns an id usable with CancelTimer.
	SetTimer(after simtime.Duration, tag any) TimerID
	// SetTimerAtLocal schedules a timer to fire when the local clock
	// reads localTime, which must not be in the local past.
	SetTimerAtLocal(localTime simtime.Time, tag any) TimerID
	// CancelTimer cancels a pending timer. Canceling an already-fired or
	// already-canceled timer is a no-op.
	CancelTimer(id TimerID)
	// Send sends a message to another process. Sending to self is not
	// part of the model.
	Send(to ProcID, payload any)
	// Broadcast sends the payload to every other process.
	Broadcast(payload any)
	// Respond delivers the response for a pending invocation to the user.
	Respond(seqID int64, ret any)
}

// engineCtx is the engine's Context.
type engineCtx struct {
	eng  *Engine
	proc ProcID
}

func (c *engineCtx) ID() ProcID { return c.proc }

func (c *engineCtx) N() int { return len(c.eng.nodes) }

func (c *engineCtx) Now() simtime.Time { return c.eng.tick }

func (c *engineCtx) LocalTime() simtime.Time {
	return c.eng.tick.Add(c.eng.offsets[c.proc])
}

func (c *engineCtx) SetTimer(after simtime.Duration, tag any) TimerID {
	if after < 0 {
		panic(fmt.Sprintf("sim: negative timer duration %v at p%d", after, c.proc))
	}
	return c.eng.setTimer(c.proc, after, tag)
}

func (c *engineCtx) SetTimerAtLocal(localTime simtime.Time, tag any) TimerID {
	after := localTime.Sub(c.LocalTime())
	if after < 0 {
		panic(fmt.Sprintf("sim: timer in the past (local %v) at p%d", localTime, c.proc))
	}
	return c.eng.setTimer(c.proc, after, tag)
}

func (c *engineCtx) CancelTimer(id TimerID) { c.eng.cancelTimer(id) }

func (c *engineCtx) Send(to ProcID, payload any) {
	if to == c.proc {
		panic(fmt.Sprintf("sim: p%d attempted to send to itself", c.proc))
	}
	c.eng.send(c.proc, to, payload)
}

func (c *engineCtx) Broadcast(payload any) {
	for p := 0; p < c.N(); p++ {
		if ProcID(p) != c.proc {
			c.eng.send(c.proc, ProcID(p), payload)
		}
	}
}

func (c *engineCtx) Respond(seqID int64, ret any) {
	c.eng.respond(c.proc, seqID, ret)
}

// Tracer exposes the engine's span sink (nil when tracing is off).
// Algorithms that record protocol-phase child spans (the quorum backend)
// discover it by asserting their Context against a small interface — the
// Context interface itself stays substrate-neutral.
func (c *engineCtx) Tracer() *obs.Collector { return c.eng.tracer }
