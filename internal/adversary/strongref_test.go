package adversary

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/lincheck"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// This file holds a brute-force reference for the two-future strong
// check, used to independently confirm the hunt's counterexamples: a
// fork pair admits a prefix-preserving linearization iff the two futures
// have completions whose commit decisions inside the shared event prefix
// coincide. The reference enumerates, per future, every legal commit
// schedule (no memoization, no tree) and intersects the serialized
// shared-prefix decisions — a different algorithm from lincheck's
// simultaneous tree DFS, so agreement is meaningful.

type refEvent struct {
	time    simtime.Time
	respond bool
	op      int
	ret     spec.Value
}

func refEvents(h []lincheck.Op) []refEvent {
	var evs []refEvent
	for i, op := range h {
		evs = append(evs, refEvent{time: op.Invoke, op: i})
		if !op.Pending() {
			evs = append(evs, refEvent{time: op.Respond, respond: true, op: i, ret: op.Ret})
		}
	}
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].time != evs[b].time {
			return evs[a].time < evs[b].time
		}
		if evs[a].respond != evs[b].respond {
			return !evs[a].respond
		}
		return evs[a].op < evs[b].op
	})
	return evs
}

// refEventKey is the cross-future identity of an event.
func refEventKey(h []lincheck.Op, ev refEvent) string {
	op := h[ev.op]
	k := fmt.Sprintf("%d·%d·%s·%s·%d", ev.time, op.Proc, op.Name, spec.FormatValue(op.Arg), op.Invoke)
	if ev.respond {
		k += "·r·" + spec.FormatValue(ev.ret)
	}
	return k
}

// refSharedLen returns the length of the common event-identity prefix.
func refSharedLen(hA, hB []lincheck.Op) int {
	eA, eB := refEvents(hA), refEvents(hB)
	k := 0
	for k < len(eA) && k < len(eB) && refEventKey(hA, eA[k]) == refEventKey(hB, eB[k]) {
		k++
	}
	return k
}

// refCompletions enumerates every successful commit schedule of one
// future and returns the set of serialized shared-prefix decisions
// (commit order, operation identities by shared event index, returns, and
// slot positions for commits made before the first diverging event).
func refCompletions(dt spec.DataType, h []lincheck.Op, shared int) map[string]bool {
	evs := refEvents(h)
	invokeIdx := make([]int, len(h))
	for i, ev := range evs {
		if !ev.respond {
			invokeIdx[ev.op] = i
		}
	}
	taken := make([]bool, len(h))
	retOf := make([]spec.Value, len(h))
	out := map[string]bool{}
	var trail []string
	var rec func(idx int, st spec.State)
	rec = func(idx int, st spec.State) {
		if idx == len(evs) {
			out[strings.Join(trail, ";")] = true
			return
		}
		ev := evs[idx]
		if !ev.respond {
			rec(idx+1, st)
		} else if taken[ev.op] && spec.ValuesEqual(retOf[ev.op], ev.ret) {
			rec(idx+1, st)
		}
		for i := range h {
			if taken[i] || invokeIdx[i] >= idx {
				continue
			}
			ret, next := st.Apply(h[i].Name, h[i].Arg)
			taken[i] = true
			retOf[i] = ret
			mark := idx <= shared
			if mark {
				trail = append(trail, fmt.Sprintf("%d@%d=%s", invokeIdx[i], idx, spec.FormatValue(ret)))
			}
			rec(idx, next)
			if mark {
				trail = trail[:len(trail)-1]
			}
			taken[i] = false
			retOf[i] = nil
		}
	}
	rec(0, dt.Initial())
	return out
}

// refStrongPair reports whether the fork pair admits a prefix-preserving
// linearization.
func refStrongPair(dt spec.DataType, hA, hB []lincheck.Op) bool {
	shared := refSharedLen(hA, hB)
	compA := refCompletions(dt, hA, shared)
	compB := refCompletions(dt, hB, shared)
	for k := range compA {
		if compB[k] {
			return true
		}
	}
	return false
}

// TestStrongForkBruteForce re-derives the hunt's headline counterexamples
// with the brute-force pair reference: for both the paper's literal
// accessor bound and the corrected Algorithm 1, the shrunk fork pair must
// be refuted by the reference exactly as by lincheck's tree search —
// and the degenerate pair (H, H) must of course be satisfiable.
func TestStrongForkBruteForce(t *testing.T) {
	p := simtime.DefaultParams(3)
	for _, mutant := range []string{"aop-no-eps", ""} {
		name := mutant
		if name == "" {
			name = "corrected"
		}
		t.Run(name, func(t *testing.T) {
			rep, err := StrongHunt(Options{
				Params: p, DT: adt.NewQueue(), Target: Target{Mutant: mutant},
				Seed: 7, Budget: 16, StopEarly: true, Shrink: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) == 0 {
				t.Fatalf("no violation to verify")
			}
			v := rep.Violations[0]
			r := &Runner{Params: p, DT: adt.NewQueue(), Target: Target{Mutant: mutant}}
			baseOut, err := r.Run(*v.Shrunk)
			if err != nil {
				t.Fatal(err)
			}
			forkOut, err := r.Run(ForkOf(*v.Shrunk, v.ShrunkForkIndex, v.ShrunkForkDelay))
			if err != nil {
				t.Fatal(err)
			}
			hA, hB := lincheck.FromTrace(baseOut.Trace), lincheck.FromTrace(forkOut.Trace)
			if len(hA) > 6 || len(hB) > 6 {
				t.Fatalf("shrunk pair too large for the brute force: %d/%d ops", len(hA), len(hB))
			}
			if !baseOut.Check.Linearizable || !forkOut.Check.Linearizable {
				t.Fatalf("futures must be individually linearizable")
			}
			if refStrongPair(adt.NewQueue(), hA, hB) {
				t.Errorf("brute force says the pair IS strongly linearizable — tree check disagrees")
			}
			tree := lincheck.NewTree()
			tree.Add(hA)
			tree.Add(hB)
			if tree.Check(adt.NewQueue()).Linearizable {
				t.Errorf("tree check flipped to strong on replay")
			}
			// Degenerate control: a pair of identical futures is satisfiable.
			if !refStrongPair(adt.NewQueue(), hA, hA) {
				t.Errorf("brute force rejects the identical pair")
			}
		})
	}
}
