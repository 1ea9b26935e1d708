// Package strongcheck decides *strong* linearizability [Golab, Higham &
// Woelfel 2011]: an implementation is strongly linearizable if a single
// linearization function f can be chosen such that f(H) is a
// linearization of every history H and f is prefix-preserving — H a
// prefix of G implies f(H) a prefix of f(G). Equivalently, linearization
// points must be chosen online, without knowledge of the future.
//
// One search, two entry points:
//
//   - Tree.Check examines a prefix tree of histories — executions of one
//     implementation that share observable prefixes and then diverge (the
//     adversary's move). The linearization chosen for a shared prefix must
//     extend into *every* branch: the classic queue counterexample — a
//     completed enqueue and a concurrent read whose return reveals a
//     different order in each branch — is linearizable branch by branch,
//     yet Tree.Check rejects it.
//   - CheckStrong is Tree.Check on a one-branch tree. On a single, fully
//     known history its verdict is plain linearizability's (commit points
//     inside each operation's interval realize any linearization that
//     respects real-time order); the package tests pin that.
//
// Both return the verdict and the search cost only, no witness. The
// search runs over a spec.Table: a search state is a state id plus, per
// operation, the id of the return it committed with (−1 while
// uncommitted), and failures are memoized on (node, those ids) written in
// binary into a reused buffer, so lookups do not allocate.
package strongcheck

import (
	"cmp"
	"slices"

	"lintime/internal/lincheck"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// Result reports the outcome of a strong-linearizability check.
type Result struct {
	// Strong reports whether a prefix-consistent linearization choice
	// exists (for CheckStrong: across all prefixes of the one history;
	// for Tree.Check: across every branch of the tree).
	Strong bool
	// Explored counts visited search states, as a cost metric.
	Explored int
}

// event is one endpoint of an operation in the time-ordered event view of
// a history.
type event struct {
	time simtime.Time
	kind eventKind
	op   int // index into the unified op table
	ret  spec.Value
}

type eventKind uint8

const (
	evInvoke eventKind = iota
	evRespond
)

// eventSeq converts a history into its time-ordered event sequence.
// Simultaneous events order invocations before responses — an operation
// invoked at the very instant another responds still overlaps it in the
// interval order (lincheck's real-time precedence uses the same strict
// inequality), so the commit freedom of the two checkers coincides —
// and ties beyond that break by op index for determinism.
func eventSeq(ops []lincheck.Op) []event {
	evs := make([]event, 0, 2*len(ops))
	for i, op := range ops {
		evs = append(evs, event{time: op.Invoke, kind: evInvoke, op: i})
		if !op.Pending() {
			evs = append(evs, event{time: op.Respond, kind: evRespond, op: i, ret: op.Ret})
		}
	}
	slices.SortFunc(evs, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.time, b.time), cmp.Compare(a.kind, b.kind), cmp.Compare(a.op, b.op))
	})
	return evs
}

// CheckStrong decides whether a linearization of the history can be chosen
// consistently across all of its prefixes. See the package comment for the
// precise semantics (and for why the verdict coincides with plain
// linearizability on a single history).
func CheckStrong(dt spec.DataType, history []lincheck.Op) Result {
	t := NewTree()
	t.Add(history)
	return t.Check(dt)
}
