package rtnet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"lintime/internal/sim"
	"lintime/internal/simtime"
)

// seqEchoNode answers every invocation after a timer of one to three
// ticks with the sequence id it was invoked under, so concurrent calls
// respond out of invocation order.
type seqEchoNode struct{}

func (seqEchoNode) Init(sim.Context) {}
func (seqEchoNode) OnInvoke(ctx sim.Context, inv sim.Invocation) {
	ctx.SetTimer(1+simtime.Duration(inv.SeqID%3), inv.SeqID)
}
func (seqEchoNode) OnMessage(sim.Context, sim.ProcID, any) {}
func (seqEchoNode) OnTimer(ctx sim.Context, tag any)       { ctx.Respond(tag.(int64), tag) }

// callAsync runs one CallTraced at proc and reports its error, once the
// call has been registered as pending.
func callAsync(t *testing.T, c *Cluster, proc sim.ProcID) <-chan error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := c.CallTraced(proc, "stuck", nil, -1)
		errc <- err
	}()
	for c.Pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	return errc
}

func abandoned(t *testing.T, errc <-chan error) error {
	t.Helper()
	select {
	case err := <-errc:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned call did not return")
		return nil
	}
}

// TestPooledReplyChannels pins the reuse contract of CallTraced's pooled
// reply channels. A call that halt abandons — through an inbox overflow or
// a Drain timeout — returns its error, and its closed channel is never
// reused: a later call handed it would panic on the response. Then a fresh
// cluster's concurrent calls each receive their own response.
func TestPooledReplyChannels(t *testing.T) {
	p := rtParams(2)
	blocked := []sim.Node{blockNode{}, blockNode{}}

	t.Run("overflow", func(t *testing.T) {
		// Never started, depth 1: a second invocation at p0 overflows its
		// inbox, and halt abandons the first.
		c, err := NewCluster(Params{Params: p, InboxDepth: 1}, tick, sim.ZeroOffsets(2), blocked, 1)
		if err != nil {
			t.Fatal(err)
		}
		errc := callAsync(t, c, 0)
		var overflow *InboxOverflowError
		if _, err := c.Invoke(0, "stuck", nil); !errors.As(err, &overflow) {
			t.Fatalf("second invoke returned %v, want *InboxOverflowError", err)
		}
		if err := abandoned(t, errc); !errors.As(err, &overflow) {
			t.Errorf("abandoned call returned %v, want *InboxOverflowError", err)
		}
	})

	t.Run("drain-timeout", func(t *testing.T) {
		c, err := NewCluster(Params{Params: p}, tick, sim.ZeroOffsets(2), blocked, 1)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		errc := callAsync(t, c, 1)
		if err := c.Drain(0); err == nil {
			t.Error("drain with a call that never responds returned nil")
		}
		if err := abandoned(t, errc); !errors.Is(err, ErrStopped) {
			t.Errorf("abandoned call returned %v, want ErrStopped", err)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		const n, calls = 4, 50
		nodes := make([]sim.Node, n)
		for i := range nodes {
			nodes[i] = seqEchoNode{}
		}
		c, err := NewCluster(Params{Params: rtParams(n)}, 100*time.Microsecond, sim.ZeroOffsets(n), nodes, 1)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		defer c.Stop()
		var mu sync.Mutex
		seen := map[int64]bool{}
		var wg sync.WaitGroup
		for proc := 0; proc < n; proc++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					arg := proc*calls + i
					r, err := c.CallTraced(sim.ProcID(proc), "echo", arg, -1)
					if err != nil {
						t.Errorf("p%d call %d: %v", proc, i, err)
						return
					}
					if r.Proc != sim.ProcID(proc) || r.Arg != any(arg) || r.Ret != any(r.Seq) {
						t.Errorf("p%d call %d (arg %d) got %+v", proc, i, arg, r)
						return
					}
					mu.Lock()
					dup := seen[r.Seq]
					seen[r.Seq] = true
					mu.Unlock()
					if dup {
						t.Errorf("p%d call %d: sequence id %d answered twice", proc, i, r.Seq)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}
