package classify

import (
	"fmt"

	"lintime/internal/spec"
)

// IsTransposable decides (within bounds) whether op is transposable: for
// any two distinct instances op1, op2 of op and any ρ, if ρ.op1 and ρ.op2
// are both legal then ρ.op1.op2 and ρ.op2.op1 are both legal. Returns
// holds=false with a counterexample if an ordering is illegal.
func (e *Explorer) IsTransposable(op string) (bool, Witness) {
	for id, rs := range e.states {
		s := int32(id)
		insts := e.distinctInstancesAt(s, op)
		for i, op1 := range insts {
			for j, op2 := range insts {
				if i == j {
					continue
				}
				// ρ.op1 and ρ.op2 are legal by construction; check that
				// op2 stays legal after op1.
				after1, _ := e.step(s, op1)
				if _, ret2 := e.step(after1, op2); !spec.ValuesEqual(ret2, op2.Ret) {
					return false, Witness{
						Rho:       rs.Rho,
						Instances: []spec.Instance{op1, op2},
						Note: fmt.Sprintf("ρ.%s.%s illegal: %s returns %s after %s",
							op1, op2, op2.Op, spec.FormatValue(ret2), op1),
					}
				}
			}
		}
	}
	return true, Witness{Note: "no counterexample within exploration bounds"}
}

// distinctInstancesAt returns the instances of op legal at s, deduplicated
// as (arg, ret) pairs.
func (e *Explorer) distinctInstancesAt(s int32, op string) []spec.Instance {
	var out []spec.Instance
	seen := map[[2]int32]bool{}
	for _, in := range e.instancesAt(s, op) {
		if key := [2]int32{e.table.Kind(in.Op, in.Arg), e.table.InternValue(in.Ret)}; !seen[key] {
			seen[key] = true
			out = append(out, in)
		}
	}
	return out
}

// permutations returns all permutations of 0..n-1. n must be small (≤ 5).
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	sub := permutations(n - 1)
	for _, p := range sub {
		for pos := 0; pos <= len(p); pos++ {
			q := make([]int, 0, n)
			q = append(q, p[:pos]...)
			q = append(q, n-1)
			q = append(q, p[pos:]...)
			out = append(out, q)
		}
	}
	return out
}

// combinations returns all k-subsets of 0..n-1.
func combinations(n, k int) [][]int {
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, i))
		}
	}
	rec(0, nil)
	return out
}

// IsLastSensitive searches for a last-sensitive witness for op with k
// distinct instances: a state ρ and instances op_0..op_{k-1}, all legal
// after ρ, such that any two permutations with different last elements
// lead to non-equivalent states. op must be transposable for the
// Theorem 3 bound (1-1/k)u to apply; callers should check separately.
func (e *Explorer) IsLastSensitive(op string, k int) (bool, Witness) {
	if k < 2 {
		return false, Witness{Note: "k must be at least 2"}
	}
	perms := permutations(k)
	for id, rs := range e.states {
		insts := e.distinctInstancesAt(int32(id), op)
		if len(insts) < k {
			continue
		}
		for _, combo := range combinations(len(insts), k) {
			chosen := make([]spec.Instance, k)
			for i, idx := range combo {
				chosen[i] = insts[idx]
			}
			if e.lastSensitiveWitnessHolds(int32(id), chosen, perms) {
				return true, Witness{
					Rho:       rs.Rho,
					Instances: chosen,
					Note:      fmt.Sprintf("permutations with different last of these %d instances are pairwise non-equivalent", k),
				}
			}
		}
	}
	return false, Witness{Note: fmt.Sprintf("no k=%d witness within exploration bounds", k)}
}

// lastSensitiveWitnessHolds checks that for the chosen instances at state
// s, permutations with different last elements always reach different
// states.
func (e *Explorer) lastSensitiveWitnessHolds(s int32, chosen []spec.Instance, perms [][]int) bool {
	lastOf := map[int32]int{} // state reached → last instance of a permutation reaching it
	for _, perm := range perms {
		cur := s
		for _, idx := range perm {
			cur, _ = e.step(cur, chosen[idx])
		}
		last := perm[len(perm)-1]
		if prev, ok := lastOf[cur]; ok && prev != last {
			return false // same state from permutations with different lasts
		}
		lastOf[cur] = last
	}
	return true
}

// MaxLastSensitiveK returns the largest k in [2, maxK] for which a
// last-sensitive witness was found, or 0 if none.
func (e *Explorer) MaxLastSensitiveK(op string, maxK int) int {
	best := 0
	for k := 2; k <= maxK; k++ {
		ok, _ := e.IsLastSensitive(op, k)
		if ok {
			best = k
		} else {
			break // instances come from the same pool; larger k will not appear
		}
	}
	return best
}
