// Package classify implements decision procedures for the algebraic
// operation properties defined in Sections 2.1, 3 and 4 of the paper:
// mutator, accessor, pure mutator/accessor, overwriter, transposable,
// last-sensitive, pair-free, and discriminators.
//
// The properties quantify over all legal sequences ρ, which is undecidable
// in general; we decide them over a bounded exploration of the reachable
// state space using the argument samples each data type declares. For
// existential properties (mutator, accessor, last-sensitive, pair-free)
// the procedures return concrete witnesses that are sound by construction;
// for universal properties (overwriter, transposable) they return either a
// concrete counterexample or "holds within bounds".
package classify

import (
	"fmt"

	"lintime/internal/spec"
)

// Config bounds the state-space exploration.
type Config struct {
	// MaxStates caps the number of distinct reachable states explored.
	MaxStates int
	// MaxDepth caps the length of the witness sequences ρ considered.
	MaxDepth int
}

// DefaultConfig returns exploration bounds adequate for all data types in
// the adt package.
func DefaultConfig() Config { return Config{MaxStates: 600, MaxDepth: 6} }

// ReachedState is a reachable state together with a legal sequence ρ that
// produces it from the initial state.
type ReachedState struct {
	State spec.State
	Rho   []spec.Instance
}

// Explorer enumerates reachable states of a data type, deduplicated by
// fingerprint, in breadth-first order so witness sequences are shortest.
// It and its decision procedures step the specification through a
// spec.Table, and an explored state's index in States is its table id.
type Explorer struct {
	dt     spec.DataType
	cfg    Config
	table  *spec.Table
	states []ReachedState
}

// NewExplorer explores the reachable states of dt up to the bounds in cfg.
func NewExplorer(dt spec.DataType, cfg Config) *Explorer {
	e := &Explorer{dt: dt, cfg: cfg, table: spec.NewTable(dt)}
	e.explore()
	return e
}

func (e *Explorer) explore() {
	e.states = append(e.states, ReachedState{State: e.table.State(0)})
	frontier := []int{0}
	for depth := 0; depth < e.cfg.MaxDepth && len(frontier) > 0; depth++ {
		var next []int
		for _, idx := range frontier {
			cur := e.states[idx]
			for _, in := range e.allInstancesAt(int32(idx)) {
				if len(e.states) >= e.cfg.MaxStates {
					return
				}
				// allInstancesAt interned the successors in this order, so
				// a new one's id is the next index.
				if ns, _ := e.step(int32(idx), in); int(ns) == len(e.states) {
					rho := append(append(make([]spec.Instance, 0, len(cur.Rho)+1), cur.Rho...), in)
					e.states = append(e.states, ReachedState{State: e.table.State(ns), Rho: rho})
					next = append(next, int(ns))
				}
			}
		}
		frontier = next
	}
}

// States returns all explored reachable states.
func (e *Explorer) States() []ReachedState { return e.states }

// DataType returns the explored data type.
func (e *Explorer) DataType() spec.DataType { return e.dt }

// step applies in's invocation in state s and returns the successor's id
// and the response.
func (e *Explorer) step(s int32, in spec.Instance) (int32, spec.Value) {
	next, ret := e.table.Step(s, e.table.Kind(in.Op, in.Arg))
	return next, e.table.Value(ret)
}

// instancesAt returns all instances of op legal immediately after state s,
// one per sampled argument.
func (e *Explorer) instancesAt(s int32, opName string) []spec.Instance {
	op, ok := spec.FindOp(e.dt, opName)
	if !ok {
		return nil
	}
	out := make([]spec.Instance, 0, len(op.Args))
	for _, arg := range op.Args {
		in := spec.Instance{Op: opName, Arg: arg}
		_, in.Ret = e.step(s, in)
		out = append(out, in)
	}
	return out
}

// allInstancesAt returns the legal next instances of every operation at s.
func (e *Explorer) allInstancesAt(s int32) []spec.Instance {
	var out []spec.Instance
	for _, op := range e.dt.Ops() {
		out = append(out, e.instancesAt(s, op.Name)...)
	}
	return out
}

// Witness describes why a property holds (or fails), as a human-readable
// explanation plus the sequences involved.
type Witness struct {
	Rho       []spec.Instance
	Instances []spec.Instance
	Note      string
}

// String renders the witness.
func (w Witness) String() string {
	return fmt.Sprintf("ρ=%s; instances=%s; %s",
		spec.FormatSeq(w.Rho), spec.FormatSeq(w.Instances), w.Note)
}
