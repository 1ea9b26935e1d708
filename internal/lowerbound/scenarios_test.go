package lowerbound

import (
	"strings"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/bounds"
	"lintime/internal/classify"
	"lintime/internal/simtime"
)

// acrossTypes runs a construction on every op of every registered type
// that classify puts in Theorem thm's class, and checks that it finds a
// violation one tick below the bound and none at the bound. It also pins
// how many ops that is, so that coverage cannot shrink unnoticed.
func acrossTypes(t *testing.T, thm, want int, bound simtime.Duration,
	theorem func(typeName, op string, budget simtime.Duration) (*Report, error)) {
	ran := 0
	for _, name := range adt.Names() {
		dt, err := adt.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		ops := Ops(thm, classify.Classify(dt, classify.DefaultConfig()))
		if len(ops) == 0 {
			continue
		}
		ran += len(ops)
		t.Run(name, func(t *testing.T) {
			for _, op := range ops {
				t.Run(op, func(t *testing.T) {
					rep, err := theorem(name, op, bound-1)
					if err != nil {
						t.Fatal(err)
					}
					if !rep.ViolationFound {
						t.Errorf("below bound: expected violation:\n%s", rep)
					}
					rep, err = theorem(name, op, bound)
					if err != nil {
						t.Fatal(err)
					}
					if rep.ViolationFound {
						t.Errorf("at bound: unexpected violation:\n%s", rep)
					}
				})
			}
		})
	}
	if ran != want {
		t.Errorf("Theorem %d ran on %d ops, want %d", thm, ran, want)
	}
}

// TestTheorem2AcrossTypes validates the specialization claim: the same
// u/4 construction works for all 19 pure accessors classify finds, built
// from classify's own witnesses.
func TestTheorem2AcrossTypes(t *testing.T) {
	p := lbParams()
	acrossTypes(t, 2, 19, p.U/4, func(typeName, op string, budget simtime.Duration) (*Report, error) {
		return Theorem2(p, typeName, op, budget)
	})
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

// TestTheorem4AcrossTypes validates Corollary 2 and beyond: all 8 ops
// classify finds pair-free (among them rmw, dequeue and pop) are subject
// to the d+m bound, with the proof chain completing below the bound and
// breaking at it.
func TestTheorem4AcrossTypes(t *testing.T) {
	p := lbParams()
	acrossTypes(t, 4, 8, p.D+bounds.MinPairFree(p), func(typeName, op string, budget simtime.Duration) (*Report, error) {
		return Theorem4(p, typeName, op, budget)
	})
}

// TestTheorem5AcrossTypes validates every Theorem 5 bound classify
// prints: the construction, built from the witness of each of the 5 pairs
// classify accepts, flips at the sum bound d+m.
func TestTheorem5AcrossTypes(t *testing.T) {
	p := lbParams()
	m := bounds.MinPairFree(p)
	acrossTypes(t, 5, 5, p.D+m, func(typeName, pair string, budget simtime.Duration) (*Report, error) {
		op, aop, _ := strings.Cut(pair, "+")
		return Theorem5(p, typeName, op, aop, p.D-2*m, budget-(p.D-2*m))
	})
}

// TestTheorem5OnUnknownType: an unknown type, and a pair outside Theorem
// 5's hypotheses, are refused; the error names the pair.
func TestTheorem5OnUnknownType(t *testing.T) {
	for _, args := range [][3]string{{"register", "write", "read"}, {"stack", "push", "peek"}, {"queue", "bogus", "peek"}} {
		_, err := Theorem5(lbParams(), args[0], args[1], args[2], 100, 100)
		if pair := args[0] + "." + args[1] + "+" + args[2]; err == nil || !strings.Contains(err.Error(), pair) {
			t.Errorf("Theorem 5 on %s: want an error naming the pair, got %v", pair, err)
		}
	}
	if _, err := Theorem5(lbParams(), "bogus", "enqueue", "peek", 100, 100); err == nil {
		t.Error("Theorem 5 on an unknown type should error")
	}
}

func TestTheorem4OnUnknownType(t *testing.T) {
	for _, args := range [][2]string{{"bogus", "dequeue"}, {"queue", "bogus"}} {
		if _, err := Theorem4(lbParams(), args[0], args[1], lbParams().D); err == nil {
			t.Errorf("Theorem 4 on %s.%s should error", args[0], args[1])
		}
	}
}

// TestTheoremsRejectOpsOutsideTheirClass: Theorems 2 and 4 run only on an
// op that classify puts in their class, and the error names its class.
func TestTheoremsRejectOpsOutsideTheirClass(t *testing.T) {
	p := lbParams()
	if _, err := Theorem4(p, "queue", "peek", p.D); err == nil || !strings.Contains(err.Error(), "(AOP)") {
		t.Errorf("peek is not pair-free; Theorem 4 should reject it naming its class, got %v", err)
	}
	if _, err := Theorem2(p, "queue", "enqueue", 1); err == nil || !strings.Contains(err.Error(), "(MOP)") {
		t.Errorf("enqueue is not a pure accessor; Theorem 2 should reject it naming its class, got %v", err)
	}
}

func TestTheorem2OnUnknownType(t *testing.T) {
	for _, args := range [][2]string{{"bogus", "peek"}, {"queue", "bogus"}} {
		if _, err := Theorem2(lbParams(), args[0], args[1], 1); err == nil {
			t.Errorf("Theorem 2 on %s.%s should error", args[0], args[1])
		}
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
