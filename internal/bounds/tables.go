package bounds

import (
	"fmt"
	"strings"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/simtime"
)

// formula is a bound evaluated for parameters p.
type formula func(p simtime.Params) Bound

// lastN is Theorem 3's bound at k = n.
func lastN(p simtime.Params) Bound { return LastSensitive(p, p.N) }

// claim is what only the paper can say about one table row.
type claim struct {
	label string  // the row's name in Table 5, where op is its representative
	op    string  // the operation, or op+aop for a sum row
	prev  formula // the previously known lower bound; nil for none
	cite  string  // prev's citation
	paper formula // the new lower bound the paper claims; nil for none
}

// claims is the paper's Tables 1-5 reduced to their claims: title, the
// data types a table covers and its rows. Every other cell is computed.
// Table 5 states classes; it names a queue operation per class, which its
// measured columns run.
var claims = []struct {
	title      string
	types      []string
	classLevel bool
	rows       []claim
}{
	{"Operation Bounds for Read/Write/Read-Modify-Write Registers", []string{"rmwregister"}, false, []claim{
		{op: "rmw", prev: JustD, cite: "[13]", paper: PairFree},
		{op: "write", prev: HalfU, cite: "[3]", paper: lastN},
		{op: "read", prev: QuarterU, cite: "[3]"},
		{op: "write+read", prev: JustD, cite: "[13]"},
	}},
	{"Operation Bounds for Queues", []string{"queue"}, false, []claim{
		{op: "enqueue", prev: HalfU, cite: "[3]", paper: lastN},
		{op: "dequeue", prev: JustD, cite: "[3]", paper: PairFree},
		{op: "peek", paper: QuarterU},
		{op: "enqueue+peek", prev: JustD, cite: "[13]", paper: SumDiscriminated},
	}},
	{"Operation Bounds for Stacks", []string{"stack"}, false, []claim{
		{op: "push", prev: HalfU, cite: "[3]", paper: lastN},
		{op: "pop", prev: JustD, cite: "[3]", paper: PairFree},
		{op: "peek", paper: QuarterU},
		{op: "push+peek", prev: JustD, cite: "[13]"},
	}},
	{"Operation Bounds for Simple Rooted Trees", []string{"tree", "treefw"}, false, []claim{
		{op: "insert", prev: HalfU, cite: "[13]", paper: lastN},
		{op: "delete", prev: HalfU, cite: "[13]", paper: lastN},
		{op: "depth", paper: QuarterU},
		{op: "insert+depth", prev: JustD, cite: "[13]", paper: SumDiscriminated},
		{op: "delete+depth", prev: JustD, cite: "[13]", paper: SumDiscriminated},
	}},
	{"Summary: Bounds by Operation Class", []string{"queue"}, true, []claim{
		{label: "pure accessor", op: "peek", paper: QuarterU},
		{label: "last-sens. MOP", op: "enqueue", prev: HalfU, cite: "[3]", paper: lastN},
		{label: "pair-free op", op: "dequeue", prev: JustD, cite: "[13]", paper: PairFree},
		{label: "MOP+AOP sum", op: "enqueue+peek", prev: JustD, cite: "[15]", paper: SumDiscriminated},
		{label: "any op", op: "dequeue"},
	}},
}

// Row is one line of a table: an operation (or sum of operations) with
// its previously known lower bound, the lower bound the classifier gives
// it, the paper's claimed new lower bound, the paper's claimed upper bound
// and this implementation's corrected upper bound.
type Row struct {
	Operation  string // the printed name
	Op         string // the operation, or op+aop, the row computes and measures
	PrevLower  Bound
	NewLower   Bound
	Claimed    Bound
	PaperUpper Bound
	Upper      Bound
	Measured   *Measured // nil until the simulator runs the row
}

// Measured is a row's measured columns.
type Measured struct {
	// AtX is the class upper bound at the configured X, which the
	// measurement must match exactly.
	AtX Bound
	// Max and Baseline are the worst-case latencies of Algorithm 1 and the
	// centralized baseline; -1 if the run never completed the op.
	Max, Baseline simtime.Duration
}

// Table is one of the paper's evaluation tables, evaluated for concrete
// parameters.
type Table struct {
	Number int
	Title  string
	Types  []string // the measured columns run on Types[0]
	Params simtime.Params
	Rows   []Row
}

// AllTables evaluates Tables 1-5 for the given parameters.
func AllTables(p simtime.Params) []Table {
	out := make([]Table, len(claims))
	for i := range claims {
		out[i], _ = Evaluate(i+1, p)
	}
	return out
}

// Evaluate computes Table number for p. In Tables 1-4 a row's new lower
// bound is the strongest one the classifier gives its op over the table's
// types — FromClassification, or Theorem 5 for a sum row whose pair
// classify accepts — naming the types that attain it when there are
// several, and its upper bounds are Algorithm 1's at the best X for the
// op's class. Table 5's rows are the class-level theorems themselves, with
// Algorithm 1's bounds at the configured X.
func Evaluate(number int, p simtime.Params) (Table, error) {
	if number < 1 || number > len(claims) {
		return Table{}, fmt.Errorf("bounds: no table %d (have 1-%d)", number, len(claims))
	}
	c := claims[number-1]
	es := make([]*classify.Shared, len(c.types))
	reps := make([]classify.Report, len(c.types))
	for i, name := range c.types {
		dt, err := adt.Lookup(name)
		if err != nil {
			return Table{}, err
		}
		es[i] = classify.For(dt)
		reps[i] = es[i].Report()
	}
	t := Table{Number: number, Title: c.title, Types: c.types, Params: p}
	for _, cl := range c.rows {
		r := Row{Operation: cl.op, Op: cl.op, PrevLower: eval(cl.prev, p), NewLower: None(), Claimed: eval(cl.paper, p)}
		if cl.label != "" {
			r.Operation = cl.label
		}
		if r.PrevLower.Defined() {
			r.PrevLower.Source = cl.cite
		}
		op, aop, sum := strings.Cut(cl.op, "+")
		var by []string // the types that attain NewLower
		for i, e := range es {
			o, ok := reps[i].Find(op)
			if !ok {
				return Table{}, fmt.Errorf("bounds: table %d row %s: type %s has no op %s", number, cl.op, c.types[i], op)
			}
			b := FromClassification(p, o, p.N)
			if sum {
				b = None()
				if _, ok := e.Theorem5Applicable(op, aop); ok {
					b = SumDiscriminated(p)
				}
			}
			switch {
			case !b.Defined():
			case !r.NewLower.Defined() || b.Value > r.NewLower.Value:
				r.NewLower, by = b, []string{c.types[i]}
			case b.Value == r.NewLower.Value:
				by = append(by, c.types[i])
			}
		}
		if len(by) > 0 && len(c.types) > 1 {
			r.NewLower.Source += ": " + strings.Join(by, ", ")
		}
		class, _ := reps[0].Find(op)
		switch {
		case sum:
			r.PaperUpper, r.Upper = UpperSumPaper(p), UpperSum(p)
		case c.classLevel:
			r.PaperUpper, r.Upper = UpperFromClassPaper(p, class.Class), UpperFromClass(p, class.Class)
		default:
			r.PaperUpper, r.Upper = UpperBest(p, class.Class, true), UpperBest(p, class.Class, false)
		}
		if c.classLevel {
			r.NewLower = r.Claimed
		}
		t.Rows = append(t.Rows, r)
	}
	return t, nil
}

func eval(f formula, p simtime.Params) Bound {
	if f == nil {
		return None()
	}
	return f(p)
}

// Disputed reports whether the paper claims a new lower bound for the row
// that differs from the one printed.
func (r Row) Disputed() bool {
	return r.Claimed.Defined() && (r.Claimed.Expr != r.NewLower.Expr || r.Claimed.Value != r.NewLower.Value)
}

// String renders the table as aligned text, with the measured columns
// when the simulator has filled them.
func (t Table) String() string {
	measured := len(t.Rows) > 0 && t.Rows[0].Measured != nil
	var b strings.Builder
	fmt.Fprintf(&b, "Table %d", t.Number)
	if measured {
		fmt.Fprintf(&b, " (measured on %s)", t.Types[0])
	}
	fmt.Fprintf(&b, ": %s  [%s; n=%d d=%v u=%v ε=%v X=%v]\n", t.Title, strings.Join(t.Types, ", "),
		t.Params.N, t.Params.D, t.Params.U, t.Params.Epsilon, t.Params.X)
	fmt.Fprintf(&b, "  %-16s | %-22s | %-30s | %-26s | %-26s", "operation", "previous lower", "new lower", "paper upper", "our upper")
	rule := 130
	if measured {
		fmt.Fprintf(&b, " | %-20s | %-10s | %-10s", "upper @X", "measured", "baseline")
		rule += 49
	}
	fmt.Fprintf(&b, "\n  %s\n", strings.Repeat("-", rule))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "  %-16s | %-22s | %-30s | %-26s | %-26s", r.Operation, r.PrevLower, r.NewLower, r.PaperUpper, r.Upper)
		if m := r.Measured; m != nil {
			fmt.Fprintf(&b, " | %-20s | %-10s | %-10s", m.AtX, latency(m.Max), latency(m.Baseline))
		}
		b.WriteString("\n")
		if r.Disputed() {
			fmt.Fprintf(&b, "  %-16s   paper claims %s\n", "", r.Claimed)
		}
	}
	return b.String()
}

// latency renders a measured worst case, "—" if none was seen.
func latency(d simtime.Duration) string {
	if d < 0 {
		return "—"
	}
	return d.String()
}
