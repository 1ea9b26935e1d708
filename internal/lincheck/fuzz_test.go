package lincheck

import (
	"reflect"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// refCheck is a brute-force reference linearizability checker: plain
// recursive enumeration of every permutation respecting the real-time
// precedence order (an op may come next only if no untaken op responded
// strictly before its invocation), with completed ops required to match
// their recorded returns and pending ops free to take any effect or be
// dropped. No memoization, no pruning beyond legality — slow but
// obviously correct for the tiny histories the fuzzer builds.
func refCheck(dt spec.DataType, history []Op) bool {
	taken := make([]bool, len(history))
	var rec func(st spec.State, completedLeft int) bool
	rec = func(st spec.State, completedLeft int) bool {
		if completedLeft == 0 {
			return true
		}
		minRespond := simtime.Infinity
		for i, t := range taken {
			if !t && history[i].Respond < minRespond {
				minRespond = history[i].Respond
			}
		}
		for i, t := range taken {
			if t {
				continue
			}
			op := history[i]
			if op.Invoke > minRespond {
				continue
			}
			ret, next := st.Apply(op.Name, op.Arg)
			if !op.Pending() && !spec.ValuesEqual(ret, op.Ret) {
				continue
			}
			left := completedLeft
			if !op.Pending() {
				left--
			}
			taken[i] = true
			if rec(next, left) {
				taken[i] = false
				return true
			}
			taken[i] = false
		}
		return false
	}
	completed := 0
	for _, op := range history {
		if !op.Pending() {
			completed++
		}
	}
	return rec(dt.Initial(), completed)
}

// FuzzCheck cross-checks the production checker against the brute-force
// reference on randomly generated histories. ONE Checker lives across all
// inputs, so a stale or poisoned cross-history table shows up as a Result
// that differs from a fresh Checker's; the sequential and parallel
// wrappers must reach the reference's verdict too.
func FuzzCheck(f *testing.F) {
	// A linearizable overlap, an illegal return, a pending enqueue that
	// must be linearized for a later dequeue, and a real-time violation.
	f.Add([]byte{0, 1, 0, 2, 1, 0, 1, 10})
	f.Add([]byte{0, 2, 0, 1, 2, 0, 5, 3})
	f.Add([]byte{0, 3, 0, 7, 1, 0, 8, 12})
	f.Add([]byte{2, 0, 0, 1, 0, 1, 4, 2, 1, 0, 9, 14})
	dt := adt.NewQueue()
	longLived := NewChecker(dt)
	f.Fuzz(func(t *testing.T, data []byte) {
		history := DecodeFuzzHistory(data)
		want := refCheck(dt, history)
		fresh := Check(dt, history)
		if fresh.Linearizable != want {
			t.Fatalf("Check = %v, reference = %v\nhistory: %+v", fresh.Linearizable, want, history)
		}
		if got := longLived.Check(history); !reflect.DeepEqual(got, fresh) {
			t.Fatalf("long-lived Checker = %+v, fresh Checker = %+v\nhistory: %+v", got, fresh, history)
		}
		if got := CheckParallel(dt, history, 4); got.Linearizable != want {
			t.Fatalf("CheckParallel = %v, reference = %v\nhistory: %+v", got.Linearizable, want, history)
		}
	})
}
