package classify

import (
	"fmt"

	"lintime/internal/spec"
)

// IsPairFree searches for a pair-free witness for op: instances op1, op2
// and a sequence ρ such that ρ.op1 and ρ.op2 are legal but ρ.op1.op2 and
// ρ.op2.op1 are both illegal. Lemma 3: every pair-free operation is both
// an accessor and a mutator; Theorem 4 then gives the d+min{ε,u,d/3}
// lower bound.
func (e *Explorer) IsPairFree(op string) (bool, Witness) {
	for id, rs := range e.states {
		s := int32(id)
		insts := e.distinctInstancesAt(s, op)
		for i, op1 := range insts {
			for j, op2 := range insts {
				if j < i {
					continue // unordered pairs; op1 == op2 allowed
				}
				after1, _ := e.step(s, op1)
				if _, ret12 := e.step(after1, op2); spec.ValuesEqual(ret12, op2.Ret) {
					continue // ρ.op1.op2 legal
				}
				after2, _ := e.step(s, op2)
				if _, ret21 := e.step(after2, op1); spec.ValuesEqual(ret21, op1.Ret) {
					continue // ρ.op2.op1 legal
				}
				return true, Witness{
					Rho:       rs.Rho,
					Instances: []spec.Instance{op1, op2},
					Note:      "neither instance can follow the other",
				}
			}
		}
	}
	return false, Witness{Note: "no pair-free witness within exploration bounds"}
}

// Discriminator is a pair of instances of a pure accessor with the same
// argument but different return values that distinguishes two sequences:
// A is legal only after the first sequence, B only after the second.
type Discriminator struct {
	A spec.Instance
	B spec.Instance
}

// String renders the discriminator.
func (d Discriminator) String() string { return fmt.Sprintf("(%s | %s)", d.A, d.B) }

// FindDiscriminator searches for a discriminator in aop for the states
// reached by two legal sequences (given directly as states): an argument
// on which the responses differ.
func (e *Explorer) FindDiscriminator(aop string, s1, s2 spec.State) (Discriminator, bool) {
	return e.discriminator(aop, e.table.Intern(s1), e.table.Intern(s2))
}

func (e *Explorer) discriminator(aop string, s1, s2 int32) (Discriminator, bool) {
	a, b := e.instancesAt(s1, aop), e.instancesAt(s2, aop)
	for i := range a {
		if !spec.ValuesEqual(a[i].Ret, b[i].Ret) {
			return Discriminator{A: a[i], B: b[i]}, true
		}
	}
	return Discriminator{}, false
}

// Theorem5Witness packages the hypotheses of Theorem 5 for a pair
// (OP, AOP): two instances op0, op1 of OP legal after ρ, and the three
// discriminators the theorem requires.
type Theorem5Witness struct {
	Rho      []spec.Instance
	Op0, Op1 spec.Instance
	// Disc0 discriminates ρ.op0 from ρ.op1.op0.
	Disc0 Discriminator
	// Disc1 discriminates ρ.op1 from ρ.op0.op1.
	Disc1 Discriminator
	// Disc2 discriminates ρ.op0.op1 from ρ.op1.op0: the accessor tells
	// the two orders of the instances apart.
	Disc2 Discriminator
}

// Pair names the witnessed pair as OP+AOP, the way the paper's tables
// name a sum row.
func (w Theorem5Witness) Pair() string { return w.Op0.Op + "+" + w.Disc1.A.Op }

// String renders the witness.
func (w Theorem5Witness) String() string {
	return fmt.Sprintf("ρ=%s; op0=%s, op1=%s; discriminators %s %s %s",
		spec.FormatSeq(w.Rho), w.Op0, w.Op1, w.Disc0, w.Disc1, w.Disc2)
}

// Theorem5Applicable searches for a Theorem 5 witness for the pair
// (op, aop): op must be transposable, aop a pure accessor, and there must
// exist ρ, op0, op1 with the three discriminators. The paper's example is
// (enqueue, peek) on a queue; (push, peek) on a stack has no witness
// because peek depends only on the last push, nor has a pair whose
// instances commute, since no accessor can tell their orders apart.
func (e *Explorer) Theorem5Applicable(op, aop string) (Theorem5Witness, bool) {
	if !e.IsPureAccessor(aop) {
		return Theorem5Witness{}, false
	}
	if trans, _ := e.IsTransposable(op); !trans {
		return Theorem5Witness{}, false
	}
	for id, rs := range e.states {
		s := int32(id)
		insts := e.distinctInstancesAt(s, op)
		for i, op0 := range insts {
			for j, op1 := range insts {
				if i == j {
					continue
				}
				after0, _ := e.step(s, op0)       // ρ.op0
				after1, _ := e.step(s, op1)       // ρ.op1
				after10, _ := e.step(after1, op0) // ρ.op1.op0
				after01, _ := e.step(after0, op1) // ρ.op0.op1
				d0, ok0 := e.discriminator(aop, after0, after10)
				if !ok0 {
					continue
				}
				d1, ok1 := e.discriminator(aop, after1, after01)
				if !ok1 {
					continue
				}
				d2, ok2 := e.discriminator(aop, after01, after10)
				if !ok2 {
					continue
				}
				return Theorem5Witness{
					Rho:   rs.Rho,
					Op0:   op0,
					Op1:   op1,
					Disc0: d0,
					Disc1: d1,
					Disc2: d2,
				}, true
			}
		}
	}
	return Theorem5Witness{}, false
}

// Theorem5Pairs returns a witness for every (op, aop) pair of the data
// type that satisfies Theorem 5, in op order.
func (e *Explorer) Theorem5Pairs() []Theorem5Witness {
	var out []Theorem5Witness
	for _, op := range e.dt.Ops() {
		for _, aop := range e.dt.Ops() {
			if w, ok := e.Theorem5Applicable(op.Name, aop.Name); ok {
				out = append(out, w)
			}
		}
	}
	return out
}
