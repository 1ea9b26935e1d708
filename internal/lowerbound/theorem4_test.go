package lowerbound

import (
	"testing"

	"lintime/internal/bounds"
	"lintime/internal/simtime"
)

func TestTheorem4ViolationBelowBound(t *testing.T) {
	p := lbParams() // m = min(ε, u, d/3) = d/3 = 6720
	m := bounds.MinPairFree(p)
	rep, err := Theorem4(p, "queue", "dequeue", p.D+m-1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ViolationFound {
		t.Errorf("budget d+m-1 should produce the contradiction:\n%s", rep)
	}
	if rep.Bound != p.D+m {
		t.Errorf("bound = %v, want %v", rep.Bound, p.D+m)
	}
}

func TestTheorem4NoViolationAtBound(t *testing.T) {
	p := lbParams()
	m := bounds.MinPairFree(p)
	rep, err := Theorem4(p, "queue", "dequeue", p.D+m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationFound {
		t.Errorf("budget d+m should not produce the contradiction:\n%s", rep)
	}
}

func TestTheorem4EpsilonLimited(t *testing.T) {
	// Configuration where m = ε < min(u, d/3) but 2m > u, so the written
	// proof's single-invalid-delay claim in Step 5 holds.
	p := simtime.Params{N: 5, D: 4 * simtime.Quantum, U: simtime.Quantum,
		Epsilon: simtime.OptimalEpsilon(5, simtime.Quantum), X: 0}
	m := bounds.MinPairFree(p)
	if m != p.Epsilon {
		t.Fatalf("expected ε-limited configuration, m = %v", m)
	}
	rep, err := Theorem4(p, "queue", "dequeue", p.D+m-1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ViolationFound {
		t.Errorf("ε-limited: budget d+m-1 should violate:\n%s", rep)
	}
	rep, err = Theorem4(p, "queue", "dequeue", p.D+m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationFound {
		t.Errorf("ε-limited: budget d+m should not violate:\n%s", rep)
	}
}

func TestTheorem4ProofGapWhenShiftStaysAdmissible(t *testing.T) {
	// When 2m ≤ u, Step 5's shifted delay d-2m remains admissible and the
	// written construction cannot derive the contradiction. The
	// mechanization must detect this and report no violation rather than
	// fabricate one.
	p := simtime.Params{N: 3, D: 3 * simtime.Quantum, U: simtime.Quantum,
		Epsilon: simtime.Quantum / 4, X: 0} // m = ε = u/4, 2m = u/2 ≤ u
	m := bounds.MinPairFree(p)
	if 2*m > p.U {
		t.Fatal("test config must have 2m ≤ u")
	}
	rep, err := Theorem4(p, "queue", "dequeue", p.D+m-1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationFound {
		t.Errorf("written proof does not apply when 2m ≤ u; no violation should be reported:\n%s", rep)
	}
}

func TestTheorem4ULimited(t *testing.T) {
	// Configuration where m = u < min(ε, d/3).
	p := simtime.Params{N: 3, D: 3 * simtime.Quantum, U: simtime.Quantum / 4, Epsilon: simtime.Quantum / 2, X: 0}
	m := bounds.MinPairFree(p)
	if m != p.U {
		t.Fatalf("expected u-limited configuration, m = %v", m)
	}
	rep, err := Theorem4(p, "queue", "dequeue", p.D+m-1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ViolationFound {
		t.Errorf("u-limited: budget d+m-1 should violate:\n%s", rep)
	}
}

func TestTheorem4BudgetBelowSelfDelay(t *testing.T) {
	p := lbParams()
	if _, err := Theorem4(p, "queue", "dequeue", p.D-p.U-1); err == nil {
		t.Error("budget below d-u should error (our algorithm family cannot go faster)")
	}
}

func TestTheorem4NeedsThreeProcesses(t *testing.T) {
	p := lbParams()
	p.N = 2
	if _, err := Theorem4(p, "queue", "dequeue", p.D); err == nil {
		t.Error("n < 3 should error")
	}
}
