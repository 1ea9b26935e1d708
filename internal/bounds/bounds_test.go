package bounds

import (
	"strings"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/simtime"
)

func tp() simtime.Params {
	return simtime.Params{N: 5, D: 300, U: 120, Epsilon: 96, X: 96}
}

func TestFormulaValues(t *testing.T) {
	p := tp()
	cases := []struct {
		name string
		b    Bound
		want simtime.Duration
	}{
		{"u/4", QuarterU(p), 30},
		{"u/2", HalfU(p, "x"), 60},
		{"(1-1/5)u", LastSensitive(p, 5), 96},
		{"(1-1/2)u", LastSensitive(p, 2), 60},
		{"d+min", PairFree(p), 396}, // min(96,120,100)=96
		{"sum lower", SumDiscriminated(p), 396},
		{"d", JustD(p, "x"), 300},
		{"X+ε", UpperMOP(p), 192},
		{"ε best", UpperMOPBest(p), 96},
		{"d-X paper", UpperAOPPaper(p), 204},
		{"d-X+ε ours", UpperAOP(p), 300},
		{"ε best paper", UpperAOPBestPaper(p), 96},
		{"2ε best ours", UpperAOPBest(p), 192},
		{"d+ε", UpperOOP(p), 396},
		{"d+ε sum paper", UpperSumPaper(p), 396},
		{"d+2ε sum ours", UpperSum(p), 492},
		{"2d folklore", Folklore(p), 600},
	}
	for _, c := range cases {
		if c.b.Value != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.b.Value, c.want)
		}
	}
}

func TestMinPairFree(t *testing.T) {
	p := simtime.Params{N: 3, D: 300, U: 40, Epsilon: 30}
	if got := MinPairFree(p); got != 30 {
		t.Errorf("m = %v, want ε = 30", got)
	}
	p.Epsilon = 500
	if got := MinPairFree(p); got != 40 {
		t.Errorf("m = %v, want u = 40", got)
	}
	p.U = 500
	if got := MinPairFree(p); got != 100 {
		t.Errorf("m = %v, want d/3 = 100", got)
	}
}

func TestPairFreeMinSelection(t *testing.T) {
	p := tp()
	p.Epsilon = 500
	p.U = 90 // u < d/3 = 100 < ε: u is the min
	if got := PairFree(p); got.Value != 390 {
		t.Errorf("PairFree = %v, want d+u = 390", got.Value)
	}
	p.U = 300 // ε=500 > d/3=100 < u: d/3 is the min
	if got := PairFree(p); got.Value != 400 {
		t.Errorf("PairFree = %v, want d+d/3 = 400", got.Value)
	}
}

func TestBoundString(t *testing.T) {
	if None().String() != "—" {
		t.Error("None should render as —")
	}
	if None().Defined() {
		t.Error("None should not be defined")
	}
	b := QuarterU(tp())
	if !strings.Contains(b.String(), "Thm 2") {
		t.Errorf("bound string missing source: %q", b.String())
	}
	if !b.Defined() {
		t.Error("QuarterU should be defined")
	}
	noSource := Bound{Expr: "x", Value: 1}
	if strings.Contains(noSource.String(), "(") {
		t.Errorf("sourceless bound should omit parens: %q", noSource.String())
	}
}

func TestUpperBoundsConsistent(t *testing.T) {
	// Lower bounds must never exceed the corrected upper bounds for any
	// valid parameter combination — the sanity check that the paper's
	// results and our correction are mutually consistent.
	for _, n := range []int{2, 3, 5, 8} {
		for _, u := range []simtime.Duration{0, simtime.Quantum / 2, simtime.Quantum} {
			d := 2 * simtime.Quantum
			eps := simtime.OptimalEpsilon(n, u)
			for _, x := range []simtime.Duration{0, eps, d - eps} {
				p := simtime.Params{N: n, D: d, U: u, Epsilon: eps, X: x}
				if err := p.Validate(); err != nil {
					t.Fatalf("test params invalid: %v", err)
				}
				if lb, ub := QuarterU(p), UpperAOP(p); lb.Value > ub.Value {
					t.Errorf("n=%d u=%v X=%v: accessor LB %v > UB %v", n, u, x, lb.Value, ub.Value)
				}
				if lb, ub := LastSensitive(p, n), UpperMOP(p); lb.Value > ub.Value {
					t.Errorf("n=%d u=%v X=%v: mutator LB %v > UB %v", n, u, x, lb.Value, ub.Value)
				}
				if lb, ub := PairFree(p), UpperOOP(p); lb.Value > ub.Value {
					t.Errorf("n=%d u=%v X=%v: pair-free LB %v > UB %v", n, u, x, lb.Value, ub.Value)
				}
				if lb, ub := SumDiscriminated(p), UpperSum(p); lb.Value > ub.Value {
					t.Errorf("n=%d u=%v X=%v: sum LB %v > UB %v", n, u, x, lb.Value, ub.Value)
				}
			}
		}
	}
}

func TestPaperSumUpperMeetsLowerOnlyWithEpsilonMin(t *testing.T) {
	// §6: if ε ≤ min(u, d/3) the paper's pair-free bounds are tight:
	// d+ε = d+min{ε,u,d/3}.
	p := tp() // ε=96 < u=120 < d/3=100? ε=96 ≤ min(120,100) ✓
	if PairFree(p).Value != UpperOOP(p).Value {
		t.Errorf("pair-free bounds should be tight here: LB %v UB %v",
			PairFree(p).Value, UpperOOP(p).Value)
	}
}

func TestAllTablesRender(t *testing.T) {
	p := tp()
	tables := AllTables(p)
	if len(tables) != 5 {
		t.Fatalf("AllTables returned %d tables", len(tables))
	}
	for _, tab := range tables {
		s := tab.String()
		if s == "" {
			t.Errorf("table %d renders empty", tab.Number)
		}
		if !strings.Contains(s, "operation") {
			t.Errorf("table %d missing header", tab.Number)
		}
	}
	if len(tables[0].Rows) != 4 || len(tables[3].Rows) != 5 {
		t.Error("table row counts off")
	}
}

func TestTableRowsMatchPaperStructure(t *testing.T) {
	p := tp()
	t2 := Table2(p)
	wantOps := []string{"enqueue", "dequeue", "peek", "enqueue+peek"}
	for i, r := range t2.Rows {
		if r.Operation != wantOps[i] {
			t.Errorf("table 2 row %d = %s, want %s", i, r.Operation, wantOps[i])
		}
	}
	// Enqueue's new lower bound must be (1-1/n)u and beat the previous
	// u/2 for n > 2.
	if t2.Rows[0].NewLower.Value <= t2.Rows[0].PrevLower.Value {
		t.Error("new enqueue bound should improve on u/2")
	}
	// Dequeue: d+min > d.
	if t2.Rows[1].NewLower.Value <= t2.Rows[1].PrevLower.Value {
		t.Error("new dequeue bound should improve on d")
	}
	// Stack push+peek has no new lower bound (Theorem 5 inapplicable).
	t3 := Table3(p)
	if t3.Rows[3].NewLower.Defined() {
		t.Error("push+peek must have no Theorem 5 bound")
	}
}

func TestFromClassification(t *testing.T) {
	p := tp()
	cfg := classify.DefaultConfig()
	cases := []struct {
		typeName, op string
		wantExpr     string
	}{
		{"queue", "dequeue", "d+min{ε,u,d/3}"},
		{"queue", "enqueue", "(1-1/5)u"},
		{"queue", "peek", "u/4"},
		{"rmwregister", "rmw", "d+min{ε,u,d/3}"},
		{"register", "write", "(1-1/5)u"},
		{"set", "add", "—"}, // commutative: no bound applies
		{"maxregister", "writemax", "—"},
		{"dict", "put", "(1-1/2)u"}, // same-key puts: only k=2 witnessed
		{"tree", "delete", "(1-1/2)u"},
	}
	for _, c := range cases {
		dt, err := adt.Lookup(c.typeName)
		if err != nil {
			t.Fatal(err)
		}
		rep := classify.Classify(dt, cfg)
		opRep, ok := rep.Find(c.op)
		if !ok {
			t.Fatalf("%s.%s not classified", c.typeName, c.op)
		}
		got := FromClassification(p, opRep, p.N)
		if got.Expr != c.wantExpr {
			t.Errorf("%s.%s lower bound = %s, want %s", c.typeName, c.op, got.Expr, c.wantExpr)
		}
	}
}

func TestGenericTable(t *testing.T) {
	p := tp()
	dt, _ := adt.Lookup("queue")
	rep := classify.Classify(dt, classify.DefaultConfig())
	rows := GenericTable(p, rep)
	if len(rows) != 3 {
		t.Fatalf("queue generic table has %d rows", len(rows))
	}
	for _, r := range rows {
		if !r.Upper.Defined() {
			t.Errorf("%s has no upper bound", r.Op)
		}
		if r.Lower.Defined() && r.Lower.Value > r.Upper.Value {
			t.Errorf("%s: LB %v exceeds UB %v", r.Op, r.Lower.Value, r.Upper.Value)
		}
	}
}

func TestUpperFromClass(t *testing.T) {
	p := tp()
	if UpperFromClass(p, classify.PureAccessor).Value != p.D-p.X+p.Epsilon {
		t.Error("accessor upper wrong")
	}
	if UpperFromClass(p, classify.PureMutator).Value != p.X+p.Epsilon {
		t.Error("mutator upper wrong")
	}
	if UpperFromClass(p, classify.Mixed).Value != p.D+p.Epsilon {
		t.Error("mixed upper wrong")
	}
	if UpperFromClassPaper(p, classify.PureAccessor).Value != p.D-p.X {
		t.Error("paper accessor upper wrong")
	}
}

// TestTableSumRowsMatchTheorem5 pins every mutator+accessor sum row of
// Tables 1-4 against classify's Theorem 5 predicate, on each data type
// the row covers. A row prints the Thm 5 bound exactly when some variant
// accepts its pair, except delete+depth: the paper claims it, neither
// tree variant has the discriminators, and the row's note says so.
func TestTableSumRowsMatchTheorem5(t *testing.T) {
	p := tp()
	accepts := map[string]map[string]bool{ // row → type → accepted
		"write+read":   {"register": false, "rmwregister": false},
		"enqueue+peek": {"queue": true},
		"push+peek":    {"stack": false},
		"insert+depth": {"tree": false, "treefw": true},
		"delete+depth": {"tree": false, "treefw": false},
	}
	rows := 0
	for _, table := range AllTables(p)[:4] {
		for _, row := range table.Rows {
			op, aop, sum := strings.Cut(row.Operation, "+")
			if !sum {
				continue
			}
			rows++
			types, ok := accepts[row.Operation]
			if !ok {
				t.Errorf("table %d row %s: no Theorem 5 expectation", table.Number, row.Operation)
				continue
			}
			accepted := false
			for name, want := range types {
				dt, err := adt.Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				_, got := classify.NewExplorer(dt, classify.DefaultConfig()).Theorem5Applicable(op, aop)
				if got != want {
					t.Errorf("%s %s: Theorem 5 applies = %v, want %v", name, row.Operation, got, want)
				}
				accepted = accepted || got
			}
			claimed := row.NewLower.Defined() && row.NewLower.Source == "Thm 5"
			if row.Operation == "delete+depth" {
				if !claimed || !strings.Contains(row.Note, "paper claims") {
					t.Errorf("delete+depth must print the paper's Thm 5 claim and say in its note that it is the paper's: %+v", row)
				}
			} else if claimed != accepted {
				t.Errorf("table %d row %s prints a Thm 5 bound = %v, but classify accepts the pair = %v",
					table.Number, row.Operation, claimed, accepted)
			}
		}
	}
	if rows != len(accepts) {
		t.Errorf("Tables 1-4 have %d sum rows, want %d", rows, len(accepts))
	}
}
