package classify

import (
	"fmt"

	"lintime/internal/spec"
)

// IsMutator decides the paper's mutator property for operation op:
// there exist ρ and an instance mop of op with ρ.mop legal but ρ ≢ ρ.mop.
// With state-machine specifications this holds iff op changes some
// reachable state. The returned witness exhibits ρ and mop.
func (e *Explorer) IsMutator(op string) (bool, Witness) {
	for id, rs := range e.states {
		s := int32(id)
		for _, mop := range e.instancesAt(s, op) {
			if next, _ := e.step(s, mop); next != s {
				return true, Witness{
					Rho:       rs.Rho,
					Instances: []spec.Instance{mop},
					Note:      fmt.Sprintf("state %q becomes %q", rs.State.Fingerprint(), e.table.State(next).Fingerprint()),
				}
			}
		}
	}
	return false, Witness{Note: "no state change found within exploration bounds"}
}

// IsAccessor decides the paper's accessor property for operation op:
// there exist a legal ρ, an operation instance other, and an instance aop
// of op such that ρ.aop and ρ.other are legal but ρ.other.aop is illegal.
// Equivalently, some other instance changes op's response. The witness
// exhibits ρ, other and the two conflicting responses.
func (e *Explorer) IsAccessor(op string) (bool, Witness) {
	for id, rs := range e.states {
		s := int32(id)
		for _, other := range e.allInstancesAt(s) {
			afterOther, _ := e.step(s, other)
			for _, aop := range e.instancesAt(s, op) {
				if _, retAfter := e.step(afterOther, aop); !spec.ValuesEqual(retAfter, aop.Ret) {
					return true, Witness{
						Rho:       rs.Rho,
						Instances: []spec.Instance{other, aop},
						Note: fmt.Sprintf("%s returns %s after ρ but %s after ρ.%s",
							aop.Op, spec.FormatValue(aop.Ret), spec.FormatValue(retAfter), other),
					}
				}
			}
		}
	}
	return false, Witness{Note: "response never depends on state within exploration bounds"}
}

// IsPureAccessor reports whether op is an accessor but not a mutator.
func (e *Explorer) IsPureAccessor(op string) bool {
	acc, _ := e.IsAccessor(op)
	mut, _ := e.IsMutator(op)
	return acc && !mut
}

// IsPureMutator reports whether op is a mutator but not an accessor.
func (e *Explorer) IsPureMutator(op string) bool {
	acc, _ := e.IsAccessor(op)
	mut, _ := e.IsMutator(op)
	return mut && !acc
}

// IsOverwriter decides (within bounds) the overwriter property for a
// mutator op: for every instance mop and every ρ.other, if ρ.mop and
// ρ.other.mop are both legal then they are equivalent — mop sets the
// entire state. Returns holds=false with a counterexample if some
// preceding instance leaks through mop.
func (e *Explorer) IsOverwriter(op string) (bool, Witness) {
	for id, rs := range e.states {
		s := int32(id)
		for _, other := range e.allInstancesAt(s) {
			afterOther, _ := e.step(s, other)
			for _, mop := range e.instancesAt(s, op) {
				// ρ.mop is legal by construction. ρ.other.mop is legal iff
				// the response matches mop's recorded return value.
				nextAfter, retAfter := e.step(afterOther, mop)
				if !spec.ValuesEqual(retAfter, mop.Ret) {
					continue // ρ.other.mop illegal: vacuously fine
				}
				if nextDirect, _ := e.step(s, mop); nextDirect != nextAfter {
					return false, Witness{
						Rho:       rs.Rho,
						Instances: []spec.Instance{other, mop},
						Note: fmt.Sprintf("ρ.%s ≢ ρ.%s.%s (%q vs %q)",
							mop, other, mop, e.table.State(nextDirect).Fingerprint(), e.table.State(nextAfter).Fingerprint()),
					}
				}
			}
		}
	}
	return true, Witness{Note: "no counterexample within exploration bounds"}
}
