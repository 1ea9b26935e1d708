package classify

import (
	"fmt"
	"strings"
	"sync"

	"lintime/internal/spec"
)

// Class is the three-way partition Algorithm 1 uses: pure accessors
// (AOP), pure mutators (MOP), and mixed operations (OOP).
type Class int

// Algorithm 1's operation classes.
const (
	// PureAccessor operations observe but never change the state (AOP).
	PureAccessor Class = iota
	// PureMutator operations change but never observe the state (MOP).
	PureMutator
	// Mixed operations both observe and change the state (OOP).
	Mixed
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case PureAccessor:
		return "AOP"
	case PureMutator:
		return "MOP"
	case Mixed:
		return "OOP"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// OpReport is the full classification of one operation.
type OpReport struct {
	Op             string
	Class          Class
	Mutator        bool
	Accessor       bool
	Overwriter     bool
	Transposable   bool
	LastSensitiveK int // largest witnessed k (0 if not last-sensitive)
	PairFree       bool

	MutatorWitness  Witness
	AccessorWitness Witness
	PairFreeWitness Witness
	LastWitness     Witness
}

// Report is the classification of an entire data type.
type Report struct {
	Type string
	Ops  []OpReport
}

// Classes extracts the op→class map Algorithm 1 consumes.
func (r Report) Classes() map[string]Class {
	m := make(map[string]Class, len(r.Ops))
	for _, op := range r.Ops {
		m[op.Op] = op.Class
	}
	return m
}

// Find returns the report for the named operation.
func (r Report) Find(op string) (OpReport, bool) {
	for _, o := range r.Ops {
		if o.Op == op {
			return o, true
		}
	}
	return OpReport{}, false
}

// String renders the report as an aligned table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "data type %s:\n", r.Type)
	fmt.Fprintf(&b, "  %-10s %-5s %-8s %-8s %-10s %-12s %-8s %s\n",
		"op", "class", "mutator", "accessor", "overwriter", "transposable", "pairfree", "last-sensitive k")
	for _, op := range r.Ops {
		fmt.Fprintf(&b, "  %-10s %-5s %-8v %-8v %-10v %-12v %-8v %d\n",
			op.Op, op.Class, op.Mutator, op.Accessor, op.Overwriter, op.Transposable, op.PairFree, op.LastSensitiveK)
	}
	return b.String()
}

// MaxKSearched is the largest k the last-sensitivity search tries;
// factorial blow-up makes larger k impractical, and the adt sample
// domains provide at most 5 distinct instances anyway. Analytic witnesses
// for k = n live in the lowerbound package.
const MaxKSearched = 4

// Classify computes the full classification report for dt.
func Classify(dt spec.DataType, cfg Config) Report {
	e := NewExplorer(dt, cfg)
	return e.Report()
}

// Shared is one data type's exploration at DefaultConfig, made once per
// process and type name (For) and shared by every caller: the bound
// tables, the harness's class lookups and the replicas they configure.
// It is safe for concurrent use; its Report and Classes are shared and
// must be treated as read-only.
type Shared struct {
	once    sync.Once
	report  Report
	classes map[string]Class

	mu sync.Mutex // e's transition table is single-threaded
	e  *Explorer
}

// shared maps a type name to its *Shared.
var shared sync.Map

// For returns dt's shared exploration, exploring it on the first call for
// its type name.
func For(dt spec.DataType) *Shared {
	v, ok := shared.Load(dt.Name())
	if !ok {
		v, _ = shared.LoadOrStore(dt.Name(), &Shared{})
	}
	s := v.(*Shared)
	s.once.Do(func() {
		s.e = NewExplorer(dt, DefaultConfig())
		s.report = s.e.Report()
		s.classes = s.report.Classes()
	})
	return s
}

// Report returns the type's classification report.
func (s *Shared) Report() Report { return s.report }

// Classes returns the type's op→class map.
func (s *Shared) Classes() map[string]Class { return s.classes }

// Theorem5Applicable is Explorer.Theorem5Applicable on the shared
// exploration.
func (s *Shared) Theorem5Applicable(op, aop string) (Theorem5Witness, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.Theorem5Applicable(op, aop)
}

// Report computes the full classification report from an existing
// exploration.
func (e *Explorer) Report() Report {
	rep := Report{Type: e.dt.Name()}
	for _, op := range e.dt.Ops() {
		mut, mw := e.IsMutator(op.Name)
		acc, aw := e.IsAccessor(op.Name)
		over := false
		if mut {
			over, _ = e.IsOverwriter(op.Name)
		}
		trans, _ := e.IsTransposable(op.Name)
		pf, pfw := e.IsPairFree(op.Name)
		lastK := 0
		var lw Witness
		if mut && trans {
			lastK = e.MaxLastSensitiveK(op.Name, MaxKSearched)
			if lastK > 0 {
				_, lw = e.IsLastSensitive(op.Name, lastK)
			}
		}
		class := Mixed
		switch {
		case acc && !mut:
			class = PureAccessor
		case mut && !acc:
			class = PureMutator
		}
		rep.Ops = append(rep.Ops, OpReport{
			Op:              op.Name,
			Class:           class,
			Mutator:         mut,
			Accessor:        acc,
			Overwriter:      over,
			Transposable:    trans,
			LastSensitiveK:  lastK,
			PairFree:        pf,
			MutatorWitness:  mw,
			AccessorWitness: aw,
			PairFreeWitness: pfw,
			LastWitness:     lw,
		})
	}
	return rep
}
