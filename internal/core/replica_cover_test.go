package core

import (
	"strings"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// TestNewReplicasBuildsDistinctNodes pins the NewReplicas contract: n
// independently constructed replicas, each starting from the data type's
// initial state. Sharing a Replica between processes would make the
// simulated system trivially (and wrongly) convergent.
func TestNewReplicasBuildsDistinctNodes(t *testing.T) {
	dt := adt.NewQueue()
	nodes := NewReplicas(3, dt, nil, Timers{})
	if len(nodes) != 3 {
		t.Fatalf("NewReplicas(3) returned %d nodes", len(nodes))
	}
	seen := map[*Replica]bool{}
	for i, n := range nodes {
		r, ok := n.(*Replica)
		if !ok {
			t.Fatalf("node %d is %T, want *Replica", i, n)
		}
		if seen[r] {
			t.Fatalf("node %d shares a Replica instance with an earlier node", i)
		}
		seen[r] = true
		if got, want := r.StateFingerprint(), dt.Initial().Fingerprint(); got != want {
			t.Errorf("node %d initial fingerprint %q, want %q", i, got, want)
		}
		r.Init(nil) // Init reads no context; it must tolerate any
	}
}

// TestOnMessageRejectsForeignPayload pins the fail-fast contract: every
// broadcast in Algorithm 1 is a MutatorMsg, so anything else reaching a
// replica is a harness bug and must panic rather than be dropped.
func TestOnMessageRejectsForeignPayload(t *testing.T) {
	r := NewReplica(adt.NewQueue(), nil, Timers{})
	defer func() {
		msg := recover()
		if msg == nil {
			t.Fatal("OnMessage accepted a non-MutatorMsg payload")
		}
		if s, ok := msg.(string); !ok || !strings.Contains(s, "unexpected message") {
			t.Errorf("panic message %v, want to mention the unexpected message", msg)
		}
	}()
	r.OnMessage(nil, sim.ProcID(0), "not a mutator announcement")
}

// TestOnTimerRejectsForeignTag pins the same fail-fast contract for timer
// tags: the replica arms only its own tag types, so an unknown tag means
// timer bookkeeping is corrupted.
func TestOnTimerRejectsForeignTag(t *testing.T) {
	r := NewReplica(adt.NewQueue(), nil, Timers{})
	defer func() {
		msg := recover()
		if msg == nil {
			t.Fatal("OnTimer accepted an unknown tag")
		}
		if s, ok := msg.(string); !ok || !strings.Contains(s, "unexpected timer tag") {
			t.Errorf("panic message %v, want to mention the unexpected tag", msg)
		}
	}()
	r.OnTimer(nil, struct{}{})
}

// TestSpeculativeReadSortsPendingEntries pins the one subtle step of the
// speculative accessor path: the To_Execute heap slice is only
// heap-ordered, not sorted, so the speculative view must re-sort the
// selected entries by timestamp before folding them over the committed
// state. The entries below are pushed so that the raw heap slice order
// (10, 30, 20) differs from timestamp order (10, 20, 30); on a stack the
// top — and hence a pop's response — depends on exactly that order.
func TestSpeculativeReadSortsPendingEntries(t *testing.T) {
	dt := adt.NewStack()
	r := NewReplica(dt, nil, Timers{})
	at := func(v int64) Timestamp { return Timestamp{Time: simtime.Time(v), Proc: 0} }
	for _, e := range []struct {
		arg int
		ts  int64
	}{{1, 10}, {2, 30}, {3, 20}} {
		r.queue.Add(&pendingOp{op: adt.OpPush, arg: e.arg, ts: at(e.ts), respondSeq: -1})
	}
	// Precondition for the test to mean anything: the heap slice really is
	// out of timestamp order after these pushes.
	if r.queue.items[1].ts.Time != 30 || r.queue.items[2].ts.Time != 20 {
		t.Fatalf("heap slice unexpectedly sorted: %v, %v, %v",
			r.queue.items[0].ts, r.queue.items[1].ts, r.queue.items[2].ts)
	}
	before := r.StateFingerprint()

	// All three pushes are ≤ ts=40; in timestamp order the last push is
	// arg 2 (ts=30), so that is the top a speculative pop must see.
	if got := r.speculativeRead(at(40), adt.OpPop, nil); !spec.ValuesEqual(got, 2) {
		t.Errorf("speculative pop over ts order (1,3,2) = %v, want 2", got)
	}
	// A back-dated accessor at ts=15 sees only the ts=10 push.
	if got := r.speculativeRead(at(15), adt.OpPop, nil); !spec.ValuesEqual(got, 1) {
		t.Errorf("speculative pop at ts=15 = %v, want 1", got)
	}
	// The read is speculative: committed state and queue are untouched.
	if got := r.StateFingerprint(); got != before {
		t.Errorf("speculativeRead mutated the replica state: %q -> %q", before, got)
	}
	if len(r.queue.items) != 3 {
		t.Errorf("speculativeRead consumed queue entries: %d left, want 3", len(r.queue.items))
	}
}
