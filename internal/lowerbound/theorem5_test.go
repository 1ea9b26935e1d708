package lowerbound

import (
	"testing"

	"lintime/internal/bounds"
	"lintime/internal/simtime"
)

func TestTheorem5ViolationBelowBound(t *testing.T) {
	p := lbParams() // m = d/3? m = min(ε=0.8u, u, d/3): d=2Q, u=Q: d/3 < 0.8u? 2Q/3 < 0.8Q ✓ m = 2Q/3... Quantum divisible by 3 ✓
	m := bounds.MinPairFree(p)
	budgetOp := p.D - 2*m
	budgetAop := 3*m - 1 // sum = d+m-1
	rep, err := Theorem5(p, "queue", budgetOp, budgetAop)
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
	rep, err := Theorem5(p, "queue", p.D-2*m, 3*m) // sum = d+m exactly
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
	rep, err := Theorem5(p, "queue", p.D-2*m-100, 3*m+99) // sum = d+m-1
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
	if _, err := Theorem5(p, "queue", 100, 100); err == nil {
		t.Error("n < 3 should error")
	}
	p = lbParams()
	if _, err := Theorem5(p, "queue", 0, 100); err == nil {
		t.Error("zero op budget should error")
	}
}

func TestTheorem5ProofGapWhenShiftStaysAdmissible(t *testing.T) {
	// Same regime gap as Theorem 4: with 2m ≤ u the shifted delay stays
	// admissible and the construction reports no violation.
	p := simtime.Params{N: 3, D: 3 * simtime.Quantum, U: simtime.Quantum,
		Epsilon: simtime.Quantum / 4, X: 0} // m = ε = u/4
	m := bounds.MinPairFree(p)
	rep, err := Theorem5(p, "queue", p.D-2*m, 3*m-1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationFound {
		t.Errorf("written proof does not apply when 2m ≤ u:\n%s", rep)
	}
}
