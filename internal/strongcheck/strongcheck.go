// Package strongcheck decides *strong* linearizability [Golab, Higham &
// Woelfel 2011]: an implementation is strongly linearizable if a single
// linearization function f can be chosen such that f(H) is a
// linearization of every history H and f is prefix-preserving — H a
// prefix of G implies f(H) a prefix of f(G). Equivalently, linearization
// points must be chosen online, without knowledge of the future.
//
// Two entry points, one search (Tree.Check's solve):
//
//   - CheckStrong examines one history: it decides whether a linearization
//     can be chosen consistently across all prefixes of that history's
//     event sequence (a monotone chain L(H_0) ⊑ L(H_1) ⊑ … with each
//     L(H_t) a valid linearization of the prefix H_t). For a single, fully
//     known history this is provably equivalent in verdict to plain
//     linearizability — a linearization respecting real-time order can
//     always be realized by commit points inside each operation's
//     interval, and vice versa — so CheckStrong ⇒ lincheck.Check by
//     construction (the package tests pin the equivalence over the
//     FuzzCheck corpus and against a brute-force commit-point reference).
//     It is a one-branch tree handed to:
//
//   - Tree.Check examines a prefix tree of histories — several
//     executions of one implementation that share observable prefixes and
//     then diverge (the divergence is the adversary's move: a late message
//     delivered earlier, an extra invocation). Here prefix preservation
//     has bite: the linearization chosen for a shared prefix must extend
//     into *every* branch. The classic queue counterexample — a completed
//     enqueue and a concurrent read whose return reveals a different order
//     in each branch — is linearizable branch by branch yet admits no
//     consistent choice, and Tree.Check rejects it. This is the
//     per-configuration analogue of the forward-simulation
//     characterization of strong linearizability.
//
// Both return the verdict and the search cost only: no caller reads a
// commit-point witness, so none is extracted.
//
// The search mirrors internal/lincheck's discipline: explicit work on a
// recursion over tree nodes with a failed-state memo keyed by a compact
// (node, committed-bitmap, state-fingerprint) byte key assembled in a
// reused scratch buffer, so equivalent search states are explored once
// and lookups do not allocate.
package strongcheck

import (
	"sort"

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
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].time != evs[b].time {
			return evs[a].time < evs[b].time
		}
		if evs[a].kind != evs[b].kind {
			return evs[a].kind < evs[b].kind
		}
		return evs[a].op < evs[b].op
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
