package lowerbound

import (
	"testing"

	"lintime/internal/simtime"
)

// lbParams returns the canonical configuration for the lower-bound
// experiments: every fraction used by the constructions is exact.
func lbParams() simtime.Params {
	return simtime.DefaultParams(5) // d=2Q, u=Q, ε=(1-1/5)u, X=ε
}

func TestTheorem2ViolationBelowBound(t *testing.T) {
	p := lbParams()
	bound := p.U / 4
	rep, err := Theorem2(p, "queue", "peek", bound-1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ViolationFound {
		t.Errorf("budget u/4 - 1 should produce a violation:\n%s", rep)
	}
	if rep.Bound != bound {
		t.Errorf("bound = %v, want %v", rep.Bound, bound)
	}
}

func TestTheorem2NoViolationAtBound(t *testing.T) {
	p := lbParams()
	rep, err := Theorem2(p, "queue", "peek", p.U/4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationFound {
		t.Errorf("budget u/4 should not produce a violation:\n%s", rep)
	}
}

func TestTheorem2VeryFastAccessor(t *testing.T) {
	p := lbParams()
	rep, err := Theorem2(p, "queue", "peek", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ViolationFound {
		t.Errorf("near-instant accessor should certainly violate:\n%s", rep)
	}
}

func TestTheorem2ParameterValidation(t *testing.T) {
	p := lbParams()
	p.N = 2
	if _, err := Theorem2(p, "queue", "peek", 1); err == nil {
		t.Error("n < 3 should error")
	}
	p = lbParams()
	p.U = 10082 // not divisible by 4
	if _, err := Theorem2(p, "queue", "peek", 1); err == nil {
		t.Error("u not divisible by 4 should error")
	}
	p = lbParams()
	p.Epsilon = p.U/2 - 1
	p.X = 0
	if _, err := Theorem2(p, "queue", "peek", 1); err == nil {
		t.Error("ε < u/2 should error")
	}
}

func TestTheorem3ViolationBelowBound(t *testing.T) {
	p := lbParams()
	for _, k := range []int{2, 3, 5} {
		kd := simtime.Duration(k)
		bound := p.U - p.U/kd
		rep, err := Theorem3(p, "queue", k, bound-1)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !rep.ViolationFound {
			t.Errorf("k=%d: budget (1-1/k)u - 1 should produce a violation:\n%s", k, rep)
		}
		if rep.Bound != bound {
			t.Errorf("k=%d: bound = %v, want %v", k, rep.Bound, bound)
		}
	}
}

func TestTheorem3NoViolationAtBound(t *testing.T) {
	p := lbParams()
	for _, k := range []int{2, 5} {
		kd := simtime.Duration(k)
		rep, err := Theorem3(p, "queue", k, p.U-p.U/kd)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if rep.ViolationFound {
			t.Errorf("k=%d: budget (1-1/k)u should not produce a violation:\n%s", k, rep)
		}
	}
}

func TestTheorem3GrowingBoundWithK(t *testing.T) {
	// The bound grows with k: a budget violating k=5 may satisfy k=2.
	p := lbParams()
	budget := p.U/2 + p.U/8 // between u/2 (k=2) and 4u/5 (k=5)
	rep2, err := Theorem3(p, "queue", 2, budget)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.ViolationFound {
		t.Errorf("budget %v ≥ u/2 should satisfy k=2:\n%s", budget, rep2)
	}
	rep5, err := Theorem3(p, "queue", 5, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !rep5.ViolationFound {
		t.Errorf("budget %v < 4u/5 should violate k=5:\n%s", budget, rep5)
	}
}

func TestTheorem3ParameterValidation(t *testing.T) {
	p := lbParams()
	if _, err := Theorem3(p, "queue", 1, 10); err == nil {
		t.Error("k < 2 should error")
	}
	if _, err := Theorem3(p, "queue", p.N+1, 10); err == nil {
		t.Error("k > n should error")
	}
	p.U = 10082
	if _, err := Theorem3(p, "queue", 5, 10); err == nil {
		t.Error("u not divisible by 2k should error")
	}
}

// TestOversizedBudgetsReport: a budget far above the bound slows the
// forced mutators past the constructions' fixed spacing. Each run then
// spaces p0's invocations by the budget instead of invoking one while
// another is pending, and reports that the budget respects the bound.
func TestOversizedBudgetsReport(t *testing.T) {
	small := simtime.Params{N: 5, D: 300, U: 120, Epsilon: 60, X: 60}
	for _, tc := range []struct {
		name string
		run  func() (*Report, error)
	}{
		{"thm3 k=n", func() (*Report, error) { return Theorem3(lbParams(), "queue", lbParams().N, 200000) }},
		{"thm3 k=2 small", func() (*Report, error) { return Theorem3(small, "queue", 2, 8064) }},
		{"thm3 tree", func() (*Report, error) { return Theorem3(lbParams(), "tree", 3, 80000) }},
		{"thm5 treefw", func() (*Report, error) { return Theorem5(lbParams(), "treefw", "insert", "depth", 100000, 10) }},
	} {
		rep, err := tc.run()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if rep.ViolationFound {
			t.Errorf("%s: budget above the bound reported a violation:\n%s", tc.name, rep)
		}
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{Theorem: "T", DataType: "queue", Op: "peek", Budget: 1, Bound: 2}
	rep.logf("step %d", 1)
	if rep.String() == "" {
		t.Error("empty report string")
	}
	rep.ViolationFound = true
	if rep.String() == "" {
		t.Error("empty report string")
	}
}
