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

// decodeFuzzHistory turns fuzz-input bytes into a small queue history:
// each operation consumes four bytes (kind, argument, invocation time,
// duration/return), capped at six operations so brute-force reference
// checkers stay fast. It is the decoding scheme of the FuzzCheck and
// FuzzCheckStrong corpora under testdata/fuzz.
//
// Durations 0-6 complete the op; 7 leaves it pending. The high bits of the
// duration byte pick the recorded return for completed accessors: ⊥ or a
// small int (possibly an illegal one — checkers must agree it is illegal).
// The process id cycles over three processes; Check ignores it, a Tree
// uses it for event identity.
func decodeFuzzHistory(data []byte) []Op {
	const maxOps = 6
	var history []Op
	for i := 0; i+4 <= len(data) && len(history) < maxOps; i += 4 {
		kind, argB, invB, durB := data[i], data[i+1], data[i+2], data[i+3]
		op := Op{ID: len(history), Proc: len(history) % 3, Invoke: simtime.Time(invB % 16)}
		if dur := durB % 8; dur == 7 {
			op.Respond = simtime.Infinity
		} else {
			op.Respond = op.Invoke.Add(simtime.Duration(dur))
		}
		arg := int(argB % 4)
		retChoice := int(durB/8) % 6
		var ret spec.Value
		if retChoice > 0 {
			ret = retChoice - 1
		}
		switch kind % 3 {
		case 0:
			op.Name, op.Arg, op.Ret = "enqueue", arg, nil
		case 1:
			op.Name, op.Ret = "dequeue", ret
		case 2:
			op.Name, op.Ret = "peek", ret
		}
		if op.Pending() {
			op.Ret = nil
		}
		history = append(history, op)
	}
	return history
}

// FuzzCheck cross-checks the production checker against the brute-force
// reference on randomly generated histories. ONE Checker lives across all
// inputs, so a stale or poisoned cross-history table shows up as a Result
// that differs from a fresh Checker's; the sequential and parallel
// wrappers must reach the reference's verdict too, and so must the tree
// search on the one-branch tree of the history (on a single, fully known
// history strong and plain linearizability coincide).
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
		history := decodeFuzzHistory(data)
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
		if got := checkForest(dt, history); got.Linearizable != fresh.Linearizable {
			t.Fatalf("one-branch CheckTree = %v, Check = %v\nhistory: %+v", got.Linearizable, fresh.Linearizable, history)
		}
	})
}

// refStrong is a brute-force reference for the single-trace strong check:
// it searches for a legal sequence of commit points directly. An order of
// operations (all completed ops, any subset of pending ones) is realizable
// iff commit times can be chosen non-decreasing with each inside its
// operation's interval — the greedy choice c_i = max(c_{i-1}, invoke_i)
// is optimal, so the recursion just carries the running commit time. This
// enforces real-time order purely through the stabbing constraint, with
// none of the production checker's event sweep, memoization, or pruning.
func refStrong(dt spec.DataType, history []Op) bool {
	taken := make([]bool, len(history))
	completed := 0
	for _, op := range history {
		if !op.Pending() {
			completed++
		}
	}
	var rec func(st spec.State, last simtime.Time, left int) bool
	rec = func(st spec.State, last simtime.Time, left int) bool {
		if left == 0 {
			return true // remaining pending ops are dropped
		}
		for i, t := range taken {
			if t {
				continue
			}
			op := history[i]
			commit := last
			if op.Invoke > commit {
				commit = op.Invoke
			}
			if commit > op.Respond {
				continue // interval already closed before the running point
			}
			ret, next := st.Apply(op.Name, op.Arg)
			if !op.Pending() && !spec.ValuesEqual(ret, op.Ret) {
				continue
			}
			l := left
			if !op.Pending() {
				l--
			}
			taken[i] = true
			if rec(next, commit, l) {
				taken[i] = false
				return true
			}
			taken[i] = false
		}
		return false
	}
	return rec(dt.Initial(), 0, completed)
}

// FuzzCheckStrong cross-checks the tree search on one-branch trees
// against the brute-force commit-point reference on randomly generated
// histories, using the same encoding as FuzzCheck's corpus.
func FuzzCheckStrong(f *testing.F) {
	// An overlap resolvable either way, an illegal return, a pending
	// enqueue observed by a dequeue, a real-time violation, and
	// zero-duration ops with touching intervals.
	f.Add([]byte{0, 1, 0, 2, 1, 0, 1, 10})
	f.Add([]byte{0, 2, 0, 1, 2, 0, 5, 3})
	f.Add([]byte{0, 3, 0, 7, 1, 0, 8, 12})
	f.Add([]byte{2, 0, 0, 1, 0, 1, 4, 2, 1, 0, 9, 14})
	f.Add([]byte{0, 1, 2, 0, 1, 0, 2, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		dt := adt.NewQueue()
		history := decodeFuzzHistory(data)
		want := refStrong(dt, history)
		res := checkForest(dt, history)
		if res.Linearizable != want {
			t.Fatalf("CheckTree = %v, reference = %v\nhistory: %+v", res.Linearizable, want, history)
		}
		if plain := Check(dt, history); res.Linearizable != plain.Linearizable {
			t.Fatalf("CheckTree = %v, Check = %v: single-trace verdicts must agree\nhistory: %+v", res.Linearizable, plain.Linearizable, history)
		}
	})
}
