// Package lowerbound mechanizes the lower-bound proofs of Sections 3 and
// 4 of the paper as executable experiments.
//
// Each Theorem function instantiates the proof's run construction against
// a *hypothetical too-fast algorithm* — Algorithm 1 with its timers forced
// below the bound under test — records the run, applies the proof's
// transformation (shifting for Theorems 2 and 3; shifting, chopping and
// appending for Theorems 4 and 5), verifies that the transformed run is
// admissible, and asks the linearizability checker for the verdict. With
// a budget below the theorem's bound the transformed run is not
// linearizable (the violation the proof derives); at or above the bound
// the construction yields a linearizable run, matching the tightness of
// the argument.
//
// The four constructions share one kit: run drives the hypothetical
// algorithm — the forced timers as an adversary.Target's Timers — through
// the verifier's own Runner on calls pinned to absolute instants,
// shiftChop is the
// shift-and-chop step of Section 4.1, forced decides which completion of
// a pending operation linearizability allows, earliestLearn is the
// message-chain bound on when p1 can first hear of p0, and judge records
// the checker's verdict. Each theorem file is then only its run schedule
// and the order in which its proof applies these moves. Theorems 2 and 4
// take their scenario from classify's witness for the op, Theorems 3 and
// 5 from the stock tables in scenarios.go.
package lowerbound

import (
	"fmt"

	"lintime/internal/adt"
	"lintime/internal/adversary"
	"lintime/internal/classify"
	"lintime/internal/core"
	"lintime/internal/lincheck"
	"lintime/internal/shift"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// Report is the outcome of one mechanized lower-bound experiment.
type Report struct {
	Theorem  string
	DataType string
	Op       string
	// Budget is the operation latency the hypothetical algorithm was
	// forced to achieve.
	Budget simtime.Duration
	// Bound is the theorem's lower bound for the configuration.
	Bound simtime.Duration
	// ViolationFound reports whether the construction produced an
	// admissible non-linearizable run (expected iff Budget < Bound).
	ViolationFound bool
	// Log is the narrative of the construction's steps.
	Log []string
}

func (r *Report) logf(format string, args ...any) {
	r.Log = append(r.Log, fmt.Sprintf(format, args...))
}

// stop logs why the construction ends early and returns the report.
func (r *Report) stop(format string, args ...any) (*Report, error) {
	r.logf(format, args...)
	return r, nil
}

// or returns the report, or err when the construction failed.
func (r *Report) or(err error) (*Report, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

// String renders the report.
func (r *Report) String() string {
	verdict := "no violation (budget respects the bound)"
	if r.ViolationFound {
		verdict = "VIOLATION: admissible run with no legal linearization"
	}
	s := fmt.Sprintf("%s [%s.%s] budget=%v bound=%v → %s\n",
		r.Theorem, r.DataType, r.Op, r.Budget, r.Bound, verdict)
	for _, line := range r.Log {
		s += "  " + line + "\n"
	}
	return s
}

// at is a call pinned to the absolute instant t.
func at(t simtime.Time, op string, arg spec.Value) adversary.PlannedOp {
	return adversary.PlannedOp{Op: op, Arg: arg, At: t}
}

// rhoPlan places ρ's invocations step apart from time 0: p0's plan
// before the construction's own calls. The slice is exactly full, so
// appending those calls copies it.
func rhoPlan(rho []spec.Instance, step simtime.Duration) []adversary.PlannedOp {
	plan := make([]adversary.PlannedOp, len(rho))
	for i, in := range rho {
		plan[i] = at(simtime.Time(simtime.Duration(i)*step), in.Op, in.Arg)
	}
	return plan
}

// single is the n-vector that is v at proc and 0 elsewhere: a clock
// offset or shift that moves one process.
func single(n int, proc sim.ProcID, v simtime.Duration) []simtime.Duration {
	x := make([]simtime.Duration, n)
	x[proc] = v
	return x
}

// delays is the network whose delay is d-m on the ordered pairs fast
// picks and d on the rest.
func delays(n int, d, m simtime.Duration, fast func(from, to int) bool) *sim.PairwiseNetwork {
	net := sim.NewPairwiseNetwork(n, d)
	for i := range net.Delays {
		for j := range net.Delays[i] {
			if i != j && fast(i, j) {
				net.Delays[i][j] = d - m
			}
		}
	}
	return net
}

// kit is one construction's hypothetical too-fast algorithm — Algorithm 1
// on the report's data type with forced timers, over one delay network —
// and the report the construction writes.
type kit struct {
	p      simtime.Params
	dt     spec.DataType
	cls    classify.Report
	net    *sim.PairwiseNetwork
	runner *adversary.Runner
	rep    *Report
}

func newKit(p simtime.Params, rep *Report, timers core.Timers, net *sim.PairwiseNetwork) (*kit, error) {
	dt, err := adt.Lookup(rep.DataType)
	if err != nil {
		return nil, err
	}
	if err := net.Validate(p); err != nil {
		return nil, err
	}
	runner := &adversary.Runner{Params: p, DT: dt, Target: adversary.Target{Timers: &timers}}
	return &kit{p: p, dt: dt, cls: classify.Classify(dt, classify.DefaultConfig()), net: net, runner: runner, rep: rep}, nil
}

// scenario is classify's witness that the report's op is in Theorem
// thm's class: the scenario the construction runs.
func (k *kit) scenario(thm int) (classify.Witness, error) {
	o, ok := k.cls.Find(k.rep.Op)
	if !ok {
		return classify.Witness{}, fmt.Errorf("lowerbound: type %s has no op %q", k.rep.DataType, k.rep.Op)
	}
	w, in := witness(thm, o)
	if !in {
		return w, fmt.Errorf("lowerbound: classify gives %s.%s (%v) no Theorem %d bound: it is not a %s",
			k.rep.DataType, o.Op, o.Class, thm, Class(thm))
	}
	return w, nil
}

// run drives plans — process p's is plans[p]; processes past the last
// run nothing — through the kit's runner on its network, from the given
// clock offsets (nil: synchronized clocks), and returns the trace, which
// the runner checks is admissible and run checks is complete.
func (k *kit) run(offsets []simtime.Duration, plans ...[]adversary.PlannedOp) (*sim.Trace, error) {
	if offsets == nil {
		offsets = sim.ZeroOffsets(k.p.N)
	}
	all := make([][]adversary.PlannedOp, k.p.N)
	copy(all, plans)
	_, out, err := k.runner.RunRule(offsets, all, k.net)
	if err != nil {
		return nil, err
	}
	if out.Incomplete {
		return nil, out.Trace.CheckComplete()
	}
	return out.Trace, nil
}

// shiftRun is the Theorem 1 shift of a whole run, which the construction
// chose so that the shifted run stays admissible.
func shiftRun(tr *sim.Trace, x []simtime.Duration) (*sim.Trace, error) {
	shifted, err := shift.Shift(tr, x)
	if err != nil {
		return nil, err
	}
	if err := shifted.CheckAdmissible(); err != nil {
		return nil, fmt.Errorf("lowerbound: shifted run inadmissible (construction bug): %w", err)
	}
	return shifted, nil
}

// shiftChop is the shift-and-chop step of Section 4.1. It shifts the part
// of tr after cut by x, where mat is the delay matrix tr ran on, and
// checks that exactly the delay bad of the shifted matrix is invalid. It
// then chops at d-m and checks that the result is an admissible run
// fragment. It returns the fragment and the shifted matrix. When no delay
// is invalid (2m ≤ u) the written proof does not apply: it logs so,
// naming the delay as what, and returns a nil fragment and error.
func (k *kit) shiftChop(tr *sim.Trace, cut simtime.Time, mat [][]simtime.Duration, x []simtime.Duration,
	bad [2]sim.ProcID, what string, m simtime.Duration) (*sim.Trace, [][]simtime.Duration, error) {
	shifted, err := shift.Shift(shift.Suffix(tr, cut), x)
	if err != nil {
		return nil, nil, err
	}
	mat = shift.Matrix(mat, x)
	switch invalid := shift.InvalidPairs(mat, k.p); {
	case len(invalid) == 0:
		k.rep.logf("%s = %v is still admissible (2m ≤ u); the written proof does not apply in this regime",
			what, mat[bad[0]][bad[1]])
		return nil, nil, nil
	case len(invalid) != 1 || invalid[0] != bad:
		return nil, nil, fmt.Errorf("lowerbound: expected exactly p%d→p%d invalid, got %v", bad[0], bad[1], invalid)
	}
	frag, err := shift.Chop(shifted, mat, k.p, k.p.D-m)
	if err != nil {
		return nil, nil, err
	}
	if err := shift.CheckFragment(frag); err != nil {
		return nil, nil, err
	}
	if err := frag.CheckAdmissible(); err != nil {
		return nil, nil, fmt.Errorf("lowerbound: chopped fragment inadmissible: %w", err)
	}
	return frag, mat, nil
}

// forced completes the pending operation at proc once with solo and once
// with other, each responding latency after its invocation, and returns
// the completion linearizability forces: the solo one if wantSolo, else
// the other. Unless exactly that completion is linearizable it logs
// step's analysis as inconclusive and returns nil.
func (k *kit) forced(step string, tr *sim.Trace, proc sim.ProcID, latency simtime.Duration,
	solo, other spec.Value, wantSolo bool) *sim.Trace {
	withSolo, withOther := completePending(tr, proc, solo, latency), completePending(tr, proc, other, latency)
	okSolo := lincheck.CheckTrace(k.dt, withSolo).Linearizable
	okOther := lincheck.CheckTrace(k.dt, withOther).Linearizable
	switch {
	case wantSolo && okSolo && !okOther:
		return withSolo
	case !wantSolo && okOther && !okSolo:
		return withOther
	}
	k.rep.logf("%s: completion analysis inconclusive (solo→%v, other→%v) — chain broken", step, okSolo, okOther)
	return nil
}

// earliestLearn is the message-chain bound: no information about an
// event at p0 at instant at can reach p1 before the returned instant,
// over the delays of mat with the p0→p1 delay repaired to d (mat is
// repaired in place).
func earliestLearn(mat [][]simtime.Duration, d simtime.Duration, at simtime.Time) simtime.Time {
	mat[0][1] = d
	return at.Add(shift.ShortestPaths(mat)[0][1])
}

// judge records the checker's verdict on tr, logs the matching
// explanation, and logs tr's history.
func (k *kit) judge(tr *sim.Trace, violated, holds string) {
	k.rep.ViolationFound = !lincheck.CheckTrace(k.dt, tr).Linearizable
	if k.rep.ViolationFound {
		k.rep.logf("%s", violated)
	} else {
		k.rep.logf("%s", holds)
	}
	k.rep.logf("history: %s", formatOps(tr.CompletedOps()))
}

// findOp locates the record of the named op invoked at proc in the trace.
func findOp(tr *sim.Trace, proc sim.ProcID, op string) (sim.OpRecord, bool) {
	for _, rec := range tr.Ops {
		if rec.Proc == proc && rec.Op == op {
			return rec, true
		}
	}
	return sim.OpRecord{}, false
}

// completed is findOp for an instance that responded.
func completed(tr *sim.Trace, proc sim.ProcID, op string) (sim.OpRecord, bool) {
	rec, ok := findOp(tr, proc, op)
	return rec, ok && !rec.Pending()
}

// completePending returns a copy of tr with proc's pending operation (a
// process has at most one) completed with the given return value,
// responding latency after its invocation.
func completePending(tr *sim.Trace, proc sim.ProcID, ret any, latency simtime.Duration) *sim.Trace {
	out := tr.Clone()
	for i := range out.Ops {
		if out.Ops[i].Proc == proc && out.Ops[i].Pending() {
			out.Ops[i].Ret = ret
			out.Ops[i].RespondTime = out.Ops[i].InvokeTime.Add(latency)
		}
	}
	return out
}

// formatOps renders a history compactly for logs.
func formatOps(ops []sim.OpRecord) string {
	s := ""
	for i, op := range ops {
		if i > 0 {
			s += " "
		}
		resp := op.RespondTime.String()
		if op.Pending() {
			resp = "…"
		}
		s += fmt.Sprintf("%s(%s→%s)@p%d[%v,%s]",
			op.Op, spec.FormatValue(op.Arg), spec.FormatValue(op.Ret), op.Proc, op.InvokeTime, resp)
	}
	return s
}
