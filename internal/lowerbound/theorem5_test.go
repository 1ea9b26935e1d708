package lowerbound

import (
	"strings"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/bounds"
	"lintime/internal/classify"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// TestTheorem5AgreesWithClassify: over all 39 (mutator, pure accessor)
// pairs of the registered types, classify accepts a pair exactly when the
// construction flips, between budget sums d+m-1 and d+m, in both orders of
// its two instances. Theorem 5's proof has a case for each order in which
// an algorithm may linearize op0 and op1. Algorithm 1 always takes p0's
// instance first, so the construction reaches the other case with op0
// and op1 swapped, and that run reads Disc0 where the first reads Disc1.
//
// An accepted pair runs in both orders from its witness. A rejected pair
// is refused by Theorem5; if its op is a pure mutator (the construction
// forces Algorithm 1's mutator timers, so it runs on no other op), it is
// run from the first instances that have Disc0 and Disc1, which is what
// classify accepted while its third discriminator was Disc1 reversed, and
// must not violate below the bound in both orders. Today neither order
// violates on any of the 14 such pairs, but the test asserts only what the
// agreement needs: lincheck may linearize an op invoked at the instant its
// process's previous op responds ahead of that op, and that decides some
// tree (insert, depth) runs (a FOUND line in CHANGES.md). A rejected
// pure-mutator pair must also have no instances with all three
// discriminators. The other 20 rejected pairs are not run: 10 have a
// mixed op, and 10 have no instances with both Disc0 and Disc1, so in one
// of the two orders p1's chopped accessor reads what it reads after both
// instances and the run has nothing to contradict.
func TestTheorem5AgreesWithClassify(t *testing.T) {
	p := lbParams()
	m := bounds.MinPairFree(p)
	budgetOp := p.D - 2*m
	pairs, accepted, rejectedRuns := 0, 0, 0
	for _, name := range adt.Names() {
		dt, err := adt.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		e := classify.NewExplorer(dt, classify.DefaultConfig())
		rep := e.Report()
		for _, o := range rep.Ops {
			for _, a := range rep.Ops {
				if !o.Mutator || a.Class != classify.PureAccessor {
					continue
				}
				pairs++
				pair := name + "." + o.Op + "+" + a.Op
				w, ok := e.Theorem5Applicable(o.Op, a.Op)
				if ok {
					accepted++
					for _, w := range []classify.Theorem5Witness{w, swap(w)} {
						if !flips(t, p, name, w, 3*m-1) || flips(t, p, name, w, 3*m) {
							t.Errorf("%s (op0=%s, op1=%s): classify accepts the pair, but the construction does not flip at the bound",
								pair, w.Op0, w.Op1)
						}
					}
					continue
				}
				if _, err := Theorem5(p, name, o.Op, a.Op, budgetOp, 3*m-1); err == nil {
					t.Errorf("%s: classify rejects the pair, but Theorem5 ran it", pair)
				}
				if o.Class != classify.PureMutator {
					continue
				}
				old, found, three := twoDiscriminators(e, o.Op, a.Op)
				if three {
					t.Errorf("%s: classify rejects the pair, but an instance pair has all three discriminators", pair)
				}
				if !found {
					continue
				}
				rejectedRuns++
				if flips(t, p, name, old, 3*m-1) && flips(t, p, name, swap(old), 3*m-1) {
					t.Errorf("%s (op0=%s, op1=%s): classify rejects the pair, but the construction violates below the bound in both orders",
						pair, old.Op0, old.Op1)
				}
			}
		}
	}
	if pairs != 39 || accepted != 5 || rejectedRuns != 14 {
		t.Errorf("classify accepted %d of %d pairs, want 5 of 39; the construction ran on %d rejected pairs, want 14",
			accepted, pairs, rejectedRuns)
	}
}

// flips runs the construction from w with the accessor's share of the
// budget sum set to budgetAop, and reports whether it found a violation.
func flips(t *testing.T, p simtime.Params, typeName string, w classify.Theorem5Witness, budgetAop simtime.Duration) bool {
	t.Helper()
	rep, err := theorem5(p, typeName, w, p.D-2*bounds.MinPairFree(p), budgetAop)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s.%s op0=%s op1=%s budget %v: violation %v", typeName, rep.Op, w.Op0, w.Op1, rep.Budget, rep.ViolationFound)
	return rep.ViolationFound
}

// swap is w with op0 and op1 exchanged: the proof's other case.
func swap(w classify.Theorem5Witness) classify.Theorem5Witness {
	return classify.Theorem5Witness{Rho: w.Rho, Op0: w.Op1, Op1: w.Op0,
		Disc0: w.Disc1, Disc1: w.Disc0, Disc2: classify.Discriminator{A: w.Disc2.B, B: w.Disc2.A}}
}

// twoDiscriminators searches the reached states ρ and distinct instances
// op0, op1 of the pure mutator op in state order for the first at which
// aop has Disc0 (ρ.op0 against ρ.op1.op0) and Disc1 (ρ.op1 against
// ρ.op0.op1). It returns them as a witness whose Disc2 is Disc1 reversed,
// and whether any reached instances also have the order discriminator
// (ρ.op0.op1 against ρ.op1.op0).
func twoDiscriminators(e *classify.Explorer, op, aop string) (w classify.Theorem5Witness, found, three bool) {
	o, _ := spec.FindOp(e.DataType(), op)
	for _, rs := range e.States() {
		for _, arg0 := range o.Args {
			for _, arg1 := range o.Args {
				_, s0 := rs.State.Apply(op, arg0)
				_, s1 := rs.State.Apply(op, arg1)
				_, s01 := s0.Apply(op, arg1)
				_, s10 := s1.Apply(op, arg0)
				d0, ok0 := e.FindDiscriminator(aop, s0, s10)
				d1, ok1 := e.FindDiscriminator(aop, s1, s01)
				if !ok0 || !ok1 || spec.ValuesEqual(arg0, arg1) {
					continue
				}
				if _, ok := e.FindDiscriminator(aop, s01, s10); ok {
					three = true
				}
				if !found {
					w, found = classify.Theorem5Witness{Rho: rs.Rho,
						Op0: spec.Instance{Op: op, Arg: arg0}, Op1: spec.Instance{Op: op, Arg: arg1},
						Disc0: d0, Disc1: d1, Disc2: classify.Discriminator{A: d1.B, B: d1.A}}, true
				}
			}
		}
	}
	return w, found, three
}

func TestTheorem5ViolationBelowBound(t *testing.T) {
	p := lbParams() // m = d/3? m = min(ε=0.8u, u, d/3): d=2Q, u=Q: d/3 < 0.8u? 2Q/3 < 0.8Q ✓ m = 2Q/3... Quantum divisible by 3 ✓
	m := bounds.MinPairFree(p)
	budgetOp := p.D - 2*m
	budgetAop := 3*m - 1 // sum = d+m-1
	rep, err := Theorem5(p, "queue", "enqueue", "peek", budgetOp, budgetAop)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ViolationFound {
		t.Errorf("budget sum d+m-1 should produce the contradiction:\n%s", rep)
	}
	if rep.Bound != p.D+m {
		t.Errorf("bound = %v, want %v", rep.Bound, p.D+m)
	}
}

func TestTheorem5NoViolationAtBound(t *testing.T) {
	p := lbParams()
	m := bounds.MinPairFree(p)
	rep, err := Theorem5(p, "queue", "enqueue", "peek", p.D-2*m, 3*m) // sum = d+m exactly
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationFound {
		t.Errorf("budget sum d+m should not produce the contradiction:\n%s", rep)
	}
}

func TestTheorem5OtherSplit(t *testing.T) {
	// A different budget split below the bound still yields the
	// contradiction as long as the chop boundaries work out.
	p := lbParams()
	m := bounds.MinPairFree(p)
	rep, err := Theorem5(p, "queue", "enqueue", "peek", p.D-2*m-100, 3*m+99) // sum = d+m-1
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ViolationFound {
		t.Errorf("alternate split below the bound should violate:\n%s", rep)
	}
}

func TestTheorem5ParameterValidation(t *testing.T) {
	p := lbParams()
	p.N = 2
	if _, err := Theorem5(p, "queue", "enqueue", "peek", 100, 100); err == nil {
		t.Error("n < 3 should error")
	}
	p = lbParams()
	if _, err := Theorem5(p, "queue", "enqueue", "peek", 0, 100); err == nil {
		t.Error("zero op budget should error")
	}
}

// TestTheorem5RefusesMixedOp: the construction forces Algorithm 1's
// pure-mutator and pure-accessor timers, so a witness whose op is mixed
// (bank's withdraw) is refused with an error naming the pair, not run
// into a process that invokes while its previous op is pending.
func TestTheorem5RefusesMixedOp(t *testing.T) {
	p := lbParams()
	m := bounds.MinPairFree(p)
	w := classify.Theorem5Witness{
		Rho: []spec.Instance{{Op: adt.OpDeposit, Arg: 5}},
		Op0: spec.Instance{Op: adt.OpWithdraw, Arg: 1}, Op1: spec.Instance{Op: adt.OpWithdraw, Arg: 2},
		Disc1: classify.Discriminator{A: spec.Instance{Op: adt.OpBalance}, B: spec.Instance{Op: adt.OpBalance}},
	}
	_, err := theorem5(p, "bank", w, p.D-2*m, 3*m-1)
	if err == nil || !strings.Contains(err.Error(), "bank.withdraw+balance") {
		t.Fatalf("want an error naming bank.withdraw+balance, got %v", err)
	}
}

func TestTheorem5ProofGapWhenShiftStaysAdmissible(t *testing.T) {
	// Same regime gap as Theorem 4: with 2m ≤ u the shifted delay stays
	// admissible and the construction reports no violation.
	p := simtime.Params{N: 3, D: 3 * simtime.Quantum, U: simtime.Quantum,
		Epsilon: simtime.Quantum / 4, X: 0} // m = ε = u/4
	m := bounds.MinPairFree(p)
	rep, err := Theorem5(p, "queue", "enqueue", "peek", p.D-2*m, 3*m-1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationFound {
		t.Errorf("written proof does not apply when 2m ≤ u:\n%s", rep)
	}
}
