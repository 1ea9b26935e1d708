package core

import (
	"testing"

	"lintime/internal/adt"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// tagCtx is a one-process Context that queues the timer tags a replica
// arms, so a test can fire them by hand, and drops what it sends.
type tagCtx struct {
	tags      []any
	responses int
}

func (c *tagCtx) ID() sim.ProcID          { return 0 }
func (c *tagCtx) N() int                  { return 3 }
func (c *tagCtx) Now() simtime.Time       { return 0 }
func (c *tagCtx) LocalTime() simtime.Time { return 0 }
func (c *tagCtx) CancelTimer(sim.TimerID) {}
func (c *tagCtx) Send(sim.ProcID, any)    {}
func (c *tagCtx) Broadcast(any)           {}
func (c *tagCtx) Respond(int64, any)      { c.responses++ }
func (c *tagCtx) SetTimer(_ simtime.Duration, tag any) sim.TimerID {
	c.tags = append(c.tags, tag)
	return sim.TimerID{}
}
func (c *tagCtx) SetTimerAtLocal(_ simtime.Time, tag any) sim.TimerID {
	return c.SetTimer(0, tag)
}

// TestReplicaOperationsAllocateNothing pins the unboxed replica: on a
// warmed replica over compiled states, a pure accessor and a pure mutator
// each run from OnInvoke through every timer they arm without
// allocating — the respond tags point at the replica's one record, and
// queue entries come from the free list — except that broadcasts are
// carved from a chunk of msgChunk, one allocation per msgChunk mutators.
func TestReplicaOperationsAllocateNothing(t *testing.T) {
	dt := spec.NewTable(adt.NewRegister(0)).Compiled()
	r := NewReplica(dt, classesFor(t, "register"), DefaultTimers(simtime.DefaultParams(3)))
	ctx := &tagCtx{}
	seq := int64(0)
	// op invokes one operation and fires the timers it arms, and those
	// arm, in order, until none is left.
	op := func(name string, arg spec.Value) {
		r.OnInvoke(ctx, sim.Invocation{SeqID: seq, Op: name, Arg: arg})
		seq++
		for i := 0; i < len(ctx.tags); i++ {
			r.OnTimer(ctx, ctx.tags[i])
		}
		ctx.tags = ctx.tags[:0]
	}
	writes := func() {
		for i := 0; i < msgChunk; i++ {
			op(adt.OpWrite, i%4)
		}
	}
	writes() // warm: the table's edges, the free list, the tag queue
	if got := testing.AllocsPerRun(100, func() { op(adt.OpRead, nil) }); got != 0 {
		t.Errorf("accessor: %.0f allocs per operation, want 0", got)
	}
	if got := testing.AllocsPerRun(20, writes); got > 1 {
		t.Errorf("mutators: %.0f allocs per %d operations, want at most the one broadcast chunk", got, msgChunk)
	}
	if want := int(seq); ctx.responses != want {
		t.Fatalf("%d responses to %d operations", ctx.responses, want)
	}
}
