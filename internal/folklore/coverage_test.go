package folklore

import (
	"testing"

	"lintime/internal/adt"
	"lintime/internal/sim"
	"lintime/internal/simtime"
)

// stubCtx is a minimal sim.Context for exercising node methods outside
// the engine — only ID() matters for the branches under test.
type stubCtx struct {
	id sim.ProcID
}

func (c stubCtx) ID() sim.ProcID                                { return c.id }
func (c stubCtx) N() int                                        { return 2 }
func (c stubCtx) Now() simtime.Time                             { return 0 }
func (c stubCtx) LocalTime() simtime.Time                       { return 0 }
func (c stubCtx) SetTimer(simtime.Duration, any) sim.TimerID    { return sim.TimerID{} }
func (c stubCtx) SetTimerAtLocal(simtime.Time, any) sim.TimerID { return sim.TimerID{} }
func (c stubCtx) CancelTimer(sim.TimerID)                       {}
func (c stubCtx) Send(sim.ProcID, any)                          {}
func (c stubCtx) Broadcast(any)                                 {}
func (c stubCtx) Respond(int64, any)                            {}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestNodeInterfaceStubs pins the inert sim.Node methods (OnTimer is a
// deliberate no-op in both folklore algorithms — neither uses timers —
// and Init needs no context) and the defensive panics on
// protocol-violating messages.
func TestNodeInterfaceStubs(t *testing.T) {
	dt := adt.NewRegister(0)
	c := NewCentral(dt)
	c.Init(stubCtx{})
	c.OnTimer(stubCtx{}, "tag")
	mustPanic(t, "central unexpected payload", func() {
		c.OnMessage(stubCtx{}, 1, struct{}{})
	})

	s := NewSequencer(dt)
	s.Init(stubCtx{})
	s.OnTimer(stubCtx{}, "tag")
	mustPanic(t, "sequencer unexpected payload", func() {
		s.OnMessage(stubCtx{}, 1, struct{}{})
	})
	mustPanic(t, "request at non-sequencer", func() {
		s.OnMessage(stubCtx{id: 1}, 0, Request{Op: "read"})
	})
}
