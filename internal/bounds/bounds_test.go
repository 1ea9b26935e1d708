package bounds

import (
	"fmt"
	"slices"
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
		{"u/2", HalfU(p), 60},
		{"(1-1/5)u", LastSensitive(p, 5), 96},
		{"(1-1/2)u", LastSensitive(p, 2), 60},
		{"d+min", PairFree(p), 396}, // min(96,120,100)=96
		{"sum lower", SumDiscriminated(p), 396},
		{"d", JustD(p), 300},
		{"X+ε", UpperMOP(p), 192},
		{"ε best", UpperBest(p, classify.PureMutator, false), 96},
		{"ε best paper", UpperBest(p, classify.PureMutator, true), 96},
		{"d-X paper", UpperAOPPaper(p), 204},
		{"d-X+ε ours", UpperAOP(p), 300},
		{"ε best paper", UpperBest(p, classify.PureAccessor, true), 96},
		{"2ε best ours", UpperBest(p, classify.PureAccessor, false), 192},
		{"d+ε", UpperOOP(p), 396},
		{"d+ε best", UpperBest(p, classify.Mixed, false), 396},
		{"d+ε sum paper", UpperSumPaper(p), 396},
		{"d+2ε sum ours", UpperSum(p), 492},
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
		if !strings.Contains(s, "operation") {
			t.Errorf("table %d missing header", tab.Number)
		}
		if strings.Contains(s, "note:") {
			t.Errorf("table %d prints a note", tab.Number)
		}
	}
	if len(tables[0].Rows) != 4 || len(tables[3].Rows) != 5 {
		t.Error("table row counts off")
	}
	if _, err := Evaluate(6, p); err == nil {
		t.Error("table 6 should error")
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
		{"tree", "insert", "(1-1/5)u"}, // k=4 witnessed: the search's cap
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
	// Theorem 3 puts each instance at its own process: k never exceeds n.
	dt, _ := adt.Lookup("register")
	write, _ := classify.Classify(dt, cfg).Find("write")
	if got := FromClassification(p, write, 3); got.Expr != "(1-1/3)u" {
		t.Errorf("register.write at n=3: lower bound = %s, want (1-1/3)u", got.Expr)
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

// explorers classifies each data type once for the table tests.
type explorers map[string]*classify.Explorer

func (xs explorers) get(t *testing.T, name string) *classify.Explorer {
	t.Helper()
	e, ok := xs[name]
	if !ok {
		dt, err := adt.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		e = classify.NewExplorer(dt, classify.DefaultConfig())
		xs[name] = e
	}
	return e
}

// checkCell fails unless row's new-lower cell is want and is printed in s.
func checkCell(t *testing.T, table Table, s string, row Row, want Bound) {
	t.Helper()
	got := row.NewLower
	if got.Expr != want.Expr || got.Value != want.Value || !strings.HasPrefix(got.Source, want.Source) {
		t.Errorf("table %d row %s: new lower %v, want %v", table.Number, row.Op, got, want)
	}
	if !strings.Contains(s, got.String()) {
		t.Errorf("table %d row %s: cell %v is not printed", table.Number, row.Op, got)
	}
}

// TestTableRowsMatchPaperStructure: every single-op new-lower cell of
// Tables 1-4 is the strongest FromClassification over the table's data
// types, the rows keep the paper's order and improvements, and the paper
// claims a different bound on exactly two rows, Table 4's delete and
// delete+depth (EXPERIMENTS.md Findings).
func TestTableRowsMatchPaperStructure(t *testing.T) {
	p := tp()
	xs := explorers{}
	tables := AllTables(p)
	var disputed []string
	for _, table := range tables[:4] {
		s := table.String()
		for _, row := range table.Rows {
			if row.Disputed() {
				disputed = append(disputed, fmt.Sprintf("table %d %s", table.Number, row.Op))
				if !strings.Contains(s, "paper claims "+row.Claimed.String()) {
					t.Errorf("table %d row %s: the paper's claim %v is not printed", table.Number, row.Op, row.Claimed)
				}
			}
			if strings.Contains(row.Op, "+") {
				continue // TestTableSumRowsMatchTheorem5
			}
			want := None()
			for _, name := range table.Types {
				o, ok := xs.get(t, name).Report().Find(row.Op)
				if !ok {
					t.Fatalf("%s.%s not classified", name, row.Op)
				}
				if b := FromClassification(p, o, p.N); b.Defined() && (!want.Defined() || b.Value > want.Value) {
					want = b
				}
			}
			checkCell(t, table, s, row, want)
		}
	}
	if want := []string{"table 4 delete", "table 4 delete+depth"}; !slices.Equal(disputed, want) {
		t.Errorf("the paper's claim differs from the printed bound on %q, want %q", disputed, want)
	}

	t2 := tables[1]
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
	if tables[2].Rows[3].NewLower.Defined() {
		t.Error("push+peek must have no Theorem 5 bound")
	}
}

// TestTableSumRowsMatchTheorem5 pins every mutator+accessor sum row of
// Tables 1-4 against classify's Theorem 5 predicate, on each data type
// the row covers: the row prints the Thm 5 bound exactly when some type
// accepts its pair. delete+depth is rejected on both tree variants, so
// its cell is — and the paper's claim is printed under it.
func TestTableSumRowsMatchTheorem5(t *testing.T) {
	p := tp()
	xs := explorers{}
	accepts := map[string]map[string]bool{ // row → type → accepted
		"write+read":   {"rmwregister": false},
		"enqueue+peek": {"queue": true},
		"push+peek":    {"stack": false},
		"insert+depth": {"tree": false, "treefw": true},
		"delete+depth": {"tree": false, "treefw": false},
	}
	rows := 0
	for _, table := range AllTables(p)[:4] {
		s := table.String()
		for _, row := range table.Rows {
			op, aop, sum := strings.Cut(row.Op, "+")
			if !sum {
				continue
			}
			rows++
			types, ok := accepts[row.Op]
			if !ok {
				t.Errorf("table %d row %s: no Theorem 5 expectation", table.Number, row.Op)
				continue
			}
			want := None()
			for _, name := range table.Types {
				wantOK, ok := types[name]
				if !ok {
					t.Errorf("table %d row %s: no expectation for type %s", table.Number, row.Op, name)
				}
				_, got := xs.get(t, name).Theorem5Applicable(op, aop)
				if got != wantOK {
					t.Errorf("%s %s: Theorem 5 applies = %v, want %v", name, row.Op, got, wantOK)
				}
				if got {
					want = SumDiscriminated(p)
				}
			}
			checkCell(t, table, s, row, want)
		}
	}
	if rows != len(accepts) {
		t.Errorf("Tables 1-4 have %d sum rows, want %d", rows, len(accepts))
	}
	t4, _ := Evaluate(4, p)
	if dd := t4.Rows[4]; dd.Op != "delete+depth" || !dd.Disputed() || dd.Claimed.Source != "Thm 5" {
		t.Errorf("delete+depth must print the paper's Thm 5 claim under its — cell: %+v", dd)
	}
}
