// Package bounds evaluates the paper's closed-form upper and lower bounds
// (Tables 1-5) for concrete model parameters and derives per-operation
// bounds from the computed classification of a data type.
//
// Two upper-bound columns are carried everywhere: the paper's claimed
// bounds (pure accessors in d-X) and this implementation's corrected
// bounds (pure accessors in d-X+ε; see internal/core's Timers doc comment
// for the counterexample to the paper's accessor wait).
package bounds

import (
	"fmt"

	"lintime/internal/classify"
	"lintime/internal/simtime"
)

// Bound is a formula with its value under specific parameters.
type Bound struct {
	Expr   string // human-readable formula, "—" when absent
	Value  simtime.Duration
	Source string // theorem or citation
}

// None is the absent bound.
func None() Bound { return Bound{Expr: "—", Value: -1} }

// String renders the bound with its source.
func (b Bound) String() string {
	if b.Expr == "—" {
		return "—"
	}
	if b.Source == "" {
		return fmt.Sprintf("%s = %v", b.Expr, b.Value)
	}
	return fmt.Sprintf("%s = %v (%s)", b.Expr, b.Value, b.Source)
}

// Defined reports whether the bound exists.
func (b Bound) Defined() bool { return b.Expr != "—" }

// The building blocks, evaluated for parameters p.

// QuarterU is the pure-accessor lower bound u/4 (Theorem 2).
func QuarterU(p simtime.Params) Bound {
	return Bound{Expr: "u/4", Value: p.U / 4, Source: "Thm 2"}
}

// HalfU is the classic two-instance mutator bound u/2 ([3], [13]); the
// table that prints it cites the source.
func HalfU(p simtime.Params) Bound {
	return Bound{Expr: "u/2", Value: p.U / 2}
}

// LastSensitive is the k-instance mutator bound (1-1/k)u (Theorem 3).
func LastSensitive(p simtime.Params, k int) Bound {
	kd := simtime.Duration(k)
	return Bound{Expr: fmt.Sprintf("(1-1/%d)u", k), Value: p.U - p.U/kd, Source: "Thm 3"}
}

// MinPairFree is m = min{ε, u, d/3}, the additive term of Theorems 4
// and 5.
func MinPairFree(p simtime.Params) simtime.Duration {
	return simtime.Min(p.Epsilon, simtime.Min(p.U, p.D/3))
}

// PairFree is the mixed-operation bound d+min{ε,u,d/3} (Theorem 4).
func PairFree(p simtime.Params) Bound {
	return Bound{Expr: "d+min{ε,u,d/3}", Value: p.D + MinPairFree(p), Source: "Thm 4"}
}

// SumDiscriminated is the mutator+accessor sum bound d+min{ε,u,d/3}
// (Theorem 5).
func SumDiscriminated(p simtime.Params) Bound {
	b := PairFree(p)
	b.Source = "Thm 5"
	return b
}

// JustD is the classic interference bound d ([13], [15]); the table that
// prints it cites the source.
func JustD(p simtime.Params) Bound {
	return Bound{Expr: "d", Value: p.D}
}

// Upper bounds of Algorithm 1 (Section 5 / Lemma 4).

// UpperMOP is the pure-mutator upper bound X+ε.
func UpperMOP(p simtime.Params) Bound {
	return Bound{Expr: "X+ε", Value: p.X + p.Epsilon, Source: "Alg 1"}
}

// UpperAOPPaper is the paper's claimed pure-accessor bound d-X.
func UpperAOPPaper(p simtime.Params) Bound {
	return Bound{Expr: "d-X", Value: p.D - p.X, Source: "Alg 1 (paper)"}
}

// UpperAOP is this implementation's corrected pure-accessor bound d-X+ε.
func UpperAOP(p simtime.Params) Bound {
	return Bound{Expr: "d-X+ε", Value: p.D - p.X + p.Epsilon, Source: "Alg 1 (corrected)"}
}

// UpperOOP is the mixed-operation bound d+ε.
func UpperOOP(p simtime.Params) Bound {
	return Bound{Expr: "d+ε", Value: p.D + p.Epsilon, Source: "Alg 1"}
}

// UpperSumPaper is the paper's accessor+mutator sum bound d+ε.
func UpperSumPaper(p simtime.Params) Bound {
	return Bound{Expr: "d+ε", Value: p.D + p.Epsilon, Source: "Alg 1 (paper)"}
}

// UpperSum is the corrected accessor+mutator sum bound d+2ε.
func UpperSum(p simtime.Params) Bound {
	return Bound{Expr: "d+2ε", Value: p.D + 2*p.Epsilon, Source: "Alg 1 (corrected)"}
}

// FromClassification derives the lower bound for one operation from its
// computed algebraic properties, applying the strongest applicable
// theorem:
//
//	pair-free                  → d + min{ε,u,d/3}   (Theorem 4)
//	last-sensitive, k wit.     → (1-1/k)u           (Theorem 3)
//	pure accessor              → u/4                (Theorem 2)
//
// kCap (usually n) caps the k used for Theorem 3, whose construction
// puts each instance at its own process. A search that reached its own
// cap extends to kCap: analytically, operations with unbounded instance
// sets (writes, enqueues, pushes) are (1-1/n)u.
func FromClassification(p simtime.Params, rep classify.OpReport, kCap int) Bound {
	if rep.PairFree {
		return PairFree(p)
	}
	if rep.LastSensitiveK >= 2 {
		k := rep.LastSensitiveK
		if k > kCap || k >= classify.MaxKSearched {
			k = kCap
		}
		return LastSensitive(p, k)
	}
	if rep.Class == classify.PureAccessor {
		return QuarterU(p)
	}
	return None()
}

// UpperFromClass gives Algorithm 1's (corrected) upper bound for an
// operation class at the configured X.
func UpperFromClass(p simtime.Params, class classify.Class) Bound {
	switch class {
	case classify.PureAccessor:
		return UpperAOP(p)
	case classify.PureMutator:
		return UpperMOP(p)
	default:
		return UpperOOP(p)
	}
}

// UpperBest gives Algorithm 1's upper bound for a class (the paper's
// claimed one if paper) at the X that minimizes it, as the paper's Tables
// 1-4 choose X per row: X=0 makes a pure mutator cost ε, X=d-ε makes a
// pure accessor cost ε as claimed or 2ε corrected; a mixed op costs d+ε
// at every X.
func UpperBest(p simtime.Params, class classify.Class, paper bool) Bound {
	switch {
	case class == classify.PureMutator:
		return Bound{Expr: "ε (X=0)", Value: p.Epsilon, Source: "Alg 1"}
	case class == classify.PureAccessor && paper:
		return Bound{Expr: "ε (X=d-ε)", Value: p.Epsilon, Source: "Alg 1 (paper)"}
	case class == classify.PureAccessor:
		return Bound{Expr: "2ε (X=d-ε)", Value: 2 * p.Epsilon, Source: "Alg 1 (corrected)"}
	}
	return UpperOOP(p)
}

// UpperFromClassPaper gives the paper's claimed upper bound for a class.
func UpperFromClassPaper(p simtime.Params, class classify.Class) Bound {
	switch class {
	case classify.PureAccessor:
		return UpperAOPPaper(p)
	case classify.PureMutator:
		return UpperMOP(p)
	default:
		return UpperOOP(p)
	}
}

// GenericRow is a computed per-operation bounds row.
type GenericRow struct {
	Op         string
	Class      classify.Class
	Lower      Bound
	Upper      Bound
	PaperUpper Bound
}

// GenericTable derives the full bounds table of a data type from its
// classification report.
func GenericTable(p simtime.Params, rep classify.Report) []GenericRow {
	rows := make([]GenericRow, 0, len(rep.Ops))
	for _, op := range rep.Ops {
		rows = append(rows, GenericRow{
			Op:         op.Op,
			Class:      op.Class,
			Lower:      FromClassification(p, op, p.N),
			Upper:      UpperFromClass(p, op.Class),
			PaperUpper: UpperFromClassPaper(p, op.Class),
		})
	}
	return rows
}
