package lowerbound

import (
	"testing"

	"lintime/internal/adt"
	"lintime/internal/bounds"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// adtLookup is a test helper for fetching data types.
func adtLookup(t *testing.T, name string) (spec.DataType, error) {
	t.Helper()
	dt, err := adt.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return dt, err
}

// TestTheorem2AcrossTypes validates the specialization claim: the same
// u/4 construction works for every pure accessor in the stock scenarios,
// with the violation appearing below the bound and vanishing at it.
func TestTheorem2AcrossTypes(t *testing.T) {
	p := lbParams()
	for _, sc := range Thm2Scenarios() {
		sc := sc
		t.Run(sc.TypeName, func(t *testing.T) {
			rep, err := Theorem2(p, sc.TypeName, p.U/4-1)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.ViolationFound {
				t.Errorf("below bound: expected violation:\n%s", rep)
			}
			rep, err = Theorem2(p, sc.TypeName, p.U/4)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ViolationFound {
				t.Errorf("at bound: unexpected violation:\n%s", rep)
			}
		})
	}
}

// TestTheorem3AcrossTypes validates Corollary 1 and beyond: write, push,
// enqueue, append, pushfront and tree-insert are all subject to the
// (1-1/k)u bound.
func TestTheorem3AcrossTypes(t *testing.T) {
	p := lbParams()
	k := 4 // all stock scenarios support at least 4 distinct instances
	kd := simtime.Duration(k)
	bound := p.U - p.U/kd
	for _, sc := range Thm3Scenarios() {
		sc := sc
		t.Run(sc.TypeName, func(t *testing.T) {
			rep, err := Theorem3(p, sc.TypeName, k, bound-1)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.ViolationFound {
				t.Errorf("below bound: expected violation:\n%s", rep)
			}
			rep, err = Theorem3(p, sc.TypeName, k, bound)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ViolationFound {
				t.Errorf("at bound: unexpected violation:\n%s", rep)
			}
		})
	}
}

// TestTheorem4AcrossTypes validates Corollary 2 and beyond: rmw, dequeue,
// pop, withdraw, extractmin and popfront are all pair-free and subject to
// the d+m bound, with the proof chain completing below the bound and
// breaking at it.
func TestTheorem4AcrossTypes(t *testing.T) {
	p := lbParams()
	m := bounds.MinPairFree(p)
	for _, sc := range Thm4Scenarios() {
		sc := sc
		t.Run(sc.TypeName, func(t *testing.T) {
			rep, err := Theorem4(p, sc.TypeName, p.D+m-1)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.ViolationFound {
				t.Errorf("below bound: expected contradiction:\n%s", rep)
			}
			rep, err = Theorem4(p, sc.TypeName, p.D+m)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ViolationFound {
				t.Errorf("at bound: unexpected contradiction:\n%s", rep)
			}
		})
	}
}

// TestTheorem5AcrossTypes: (enqueue, peek) on the queue — the paper's
// example — plus (insert, depth) on the first-wins tree (Table 4's
// insert+depth row) and (pushback, front) on the deque.
func TestTheorem5AcrossTypes(t *testing.T) {
	p := lbParams()
	m := bounds.MinPairFree(p)
	for _, sc := range Thm5Scenarios() {
		sc := sc
		t.Run(sc.TypeName, func(t *testing.T) {
			rep, err := Theorem5(p, sc.TypeName, p.D-2*m, 3*m-1)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.ViolationFound {
				t.Errorf("below bound: expected violation:\n%s", rep)
			}
			rep, err = Theorem5(p, sc.TypeName, p.D-2*m, 3*m)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ViolationFound {
				t.Errorf("at bound: unexpected violation:\n%s", rep)
			}
		})
	}
}

func TestTheorem5OnUnknownType(t *testing.T) {
	p := lbParams()
	if _, err := Theorem5(p, "register", 100, 100); err == nil {
		t.Error("types without a Theorem 5 scenario should error")
	}
}

func TestTheorem4OnUnknownType(t *testing.T) {
	if _, err := Theorem4(lbParams(), "register", lbParams().D); err == nil {
		t.Error("types without a pair-free scenario should error")
	}
}

func TestThm4ScenarioValuesValidatePairFreeness(t *testing.T) {
	dt, _ := adtLookup(t, "queue")
	// A scenario whose op is not pair-free after ρ must be rejected.
	bad := Thm4Scenario{TypeName: "queue", Op: "peek"}
	if _, _, err := bad.values(dt); err == nil {
		t.Error("peek is not pair-free; values() should reject it")
	}
}

func TestTheorem2OnUnknownType(t *testing.T) {
	if _, err := Theorem2(lbParams(), "maxregister", 1); err == nil {
		t.Error("types without a stock scenario should error")
	}
}

func TestTheorem3OnUnknownType(t *testing.T) {
	if _, err := Theorem3(lbParams(), "set", 2, 1); err == nil {
		t.Error("types without a stock scenario should error")
	}
}

func TestTheorem3TreeInstanceCap(t *testing.T) {
	// The tree scenario supports at most len(treeChain)+1 parents.
	p := simtime.Params{N: 16, D: 2 * simtime.Quantum, U: simtime.Quantum,
		Epsilon: simtime.OptimalEpsilon(16, simtime.Quantum)}
	p.X = p.Epsilon
	if _, err := Theorem3(p, "tree", 16, 1); err == nil {
		t.Error("k beyond the scenario's instance supply should error")
	}
}

func TestTheorem3OnRegisterMatchesCorollary1(t *testing.T) {
	// Corollary 1 names |Write| ≥ (1-1/n)u explicitly.
	p := lbParams()
	kd := simtime.Duration(p.N)
	rep, err := Theorem3(p, "register", p.N, p.U-p.U/kd-1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ViolationFound {
		t.Errorf("register write below (1-1/n)u should violate:\n%s", rep)
	}
}
