package adversary

import (
	"fmt"
	"io"

	"lintime/internal/diagram"
	"lintime/internal/harness"
	"lintime/internal/lincheck"
	"lintime/internal/obs"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// Strong-hunt throughput counters on the process-wide registry.
var (
	strongForksTotal      = obs.Default.Counter("adversary_strong_forks_total")
	strongPairsTotal      = obs.Default.Counter("adversary_strong_pairs_total")
	strongViolationsTotal = obs.Default.Counter("adversary_strong_violations_total")
)

// ForkViolation is a pair of admissible executions proving the target is
// not strongly linearizable: the fork differs from the base in a single
// message delay, both runs are clean (linearizable, complete, converged),
// their observable histories diverge, and the prefix tree of the two
// histories admits no prefix-preserving linearization.
type ForkViolation struct {
	Index    int    // base schedule index within the hunt
	Strategy string // generating strategy of the base
	Base     Schedule
	// ForkIndex / ForkDelay identify the flipped delay: the fork schedule
	// is Base with Delays[ForkIndex] = ForkDelay.
	ForkIndex int
	ForkDelay simtime.Duration
	// Shrunk, ShrunkForkIndex and ShrunkForkDelay describe the minimal
	// pair (when Options.Shrink).
	Shrunk          *Schedule
	ShrunkForkIndex int
	ShrunkForkDelay simtime.Duration
	Runs            int // shrinker executions spent
	TreeExplored    int // search states visited refuting the pair
}

// ForkOf materializes the fork schedule of a (base, index, delay) triple.
func ForkOf(base Schedule, idx int, delay simtime.Duration) Schedule {
	f := base.Clone()
	f.Delays[idx] = delay
	return f
}

// StrongReport summarizes a strong-linearizability hunt.
type StrongReport struct {
	Target     Target
	Bases      int // base schedules evaluated
	Forks      int // fork schedules evaluated
	Pairs      int // pairs with both runs clean and observably diverging
	Violations []ForkViolation
}

// strongCorners are handcrafted base schedules shaped for fork pairs, run
// before the general boundary sweep. The shape: a single mutator at time
// zero and a single accessor on a fast clock invoked inside the window
// (X-ε, X), with every delay at the maximum. The accessor's timestamp
// then dominates the mutator's, and whether its drain sees the mutator's
// announcement depends on that one message drawing d (miss) or d-u (hit)
// — exactly a single-delay fork with both futures legal, since the
// mutator is still pending at the accessor's invocation. No probes: both
// futures must stay individually clean, and the committed state is the
// same in both.
func strongCorners(p simtime.Params, ops opset) []candidate {
	if p.N < 2 {
		return nil
	}
	var out []candidate
	start := simtime.Max(0, p.X-p.Epsilon) + simtime.Min(p.X, p.Epsilon)/2
	offsets := make([]simtime.Duration, p.N)
	offsets[0] = p.Epsilon // accessor's clock runs ahead
	for _, accessor := range []spec.OpInfo{ops.accessors[0], ops.mixed[0]} {
		plans := emptyPlans(p.N)
		plans[0] = append(plans[0], planned(accessor, 0, start))
		plans[1] = append(plans[1], planned(ops.mutators[0], 1, 0))
		out = append(out, candidate{
			offsets: append([]simtime.Duration(nil), offsets...),
			plans:   plans,
			net:     sim.UniformNetwork{D: p.D},
		})
	}
	return out
}

// StrongHunt searches for executions that are linearizable but not
// strongly linearizable. The adversary's move that plain linearizability
// cannot see is a *fork*: two futures of one partially revealed execution.
// The hunt generates admissible base schedules (reusing the boundary and
// random strategies), replays each with every single message delay flipped
// to the opposite admissible extreme, and keeps pairs whose runs are both
// individually clean yet observably diverge; lincheck's prefix-tree
// check then decides whether some linearization choice survives both
// futures. Deterministic like Fuzz: harness.RunChunks evaluates batches
// of bases and folds them in index order. The strategy order is fixed
// (the strong corners and boundary sweep interleaved with random), so
// opts.Strategies must be empty; Shrink reduces each violating pair to a
// minimal base that still admits a violating fork.
func StrongHunt(opts Options) (*StrongReport, error) {
	p := opts.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(opts.Strategies) > 0 {
		return nil, fmt.Errorf("adversary: the strong hunt's strategy order is fixed; got strategies %q", opts.Strategies)
	}
	if opts.Budget <= 0 {
		opts.Budget = batchSize
	}
	ops := opsFor(opts.DT)
	boundary := newBoundarySource(p, ops)
	corners := strongCorners(p, ops)
	// Fork replays feed the prefix tree with invocation/response records
	// only, so step recording stays off; diagrams replay at TraceFull.
	runner := &Runner{Params: p, DT: opts.DT, Target: opts.Target, Trace: sim.TraceOps}
	strategies := []string{StratBoundary, StratRandom}

	rep := &StrongReport{Target: opts.Target}

	type slot struct {
		strategy  string
		base      Schedule
		forks     int
		pairs     int
		forkIdx   int
		forkDelay simtime.Duration
		explored  int
		violated  bool
	}
	eval := func(i int) (slot, error) {
		strat := strategies[i%len(strategies)]
		ordinal := i / len(strategies)
		var (
			base Schedule
			out  *Outcome
			err  error
		)
		switch strat {
		case StratBoundary:
			cand := candidate{}
			if ordinal < len(corners) {
				cand = corners[ordinal]
			} else {
				cand = boundary.candidateAt(p, ops, opts.Seed, ordinal-len(corners))
			}
			base, out, err = runner.RunRule(cand.offsets, cand.plans, cand.net)
		case StratRandom:
			cand := randomCandidate(p, ops, opts.Seed, "strong-random", ordinal, false)
			base = cand.sched
			out, err = runner.Run(base)
		}
		sl := slot{strategy: strat, base: base}
		if err != nil || out.Violation() != "" {
			return sl, err
		}
		sl.forkIdx, sl.forkDelay, sl.forks, sl.pairs, sl.explored, sl.violated, err = findFork(runner, base, out)
		return sl, err
	}
	fold := func(i int, sl slot) (bool, error) {
		rep.Bases++
		rep.Forks += sl.forks
		rep.Pairs += sl.pairs
		schedulesTotal.Inc()
		strongForksTotal.Add(int64(sl.forks))
		strongPairsTotal.Add(int64(sl.pairs))
		if !sl.violated {
			return false, nil
		}
		strongViolationsTotal.Inc()
		v := ForkViolation{
			Index:        i,
			Strategy:     sl.strategy,
			Base:         sl.base,
			ForkIndex:    sl.forkIdx,
			ForkDelay:    sl.forkDelay,
			TreeExplored: sl.explored,
		}
		if opts.Shrink {
			shrunk, idx, delay, runs, err := ShrinkStrong(runner, sl.base)
			if err != nil {
				return false, err
			}
			v.Shrunk = &shrunk
			v.ShrunkForkIndex = idx
			v.ShrunkForkDelay = delay
			v.Runs = runs
		}
		rep.Violations = append(rep.Violations, v)
		return opts.StopEarly, nil
	}
	if err := harness.RunChunks(opts.Budget, batchSize, opts.Parallel, eval, fold); err != nil {
		return nil, err
	}
	return rep, nil
}

// findFork scans the base schedule's message delays for a fork that
// refutes strong linearizability: each delay in turn is flipped to the
// admissible extremes it does not already sit at, the fork is replayed,
// and clean observably-diverging pairs go through the prefix-tree check.
// The scan runs from the last message backward — later forks share longer
// prefixes, where a completed operation is most likely to pin the
// conflicting commit — and returns the first violating fork, so the
// result is deterministic.
func findFork(r *Runner, base Schedule, baseOut *Outcome) (idx int, delay simtime.Duration, forks, pairs, explored int, found bool, err error) {
	p := r.Params
	for i := len(base.Delays) - 1; i >= 0; i-- {
		for _, v := range []simtime.Duration{p.D, p.MinDelay()} {
			if base.Delays[i] == v {
				continue
			}
			fork := ForkOf(base, i, v)
			out, err := r.Run(fork)
			if err != nil {
				return 0, 0, forks, pairs, explored, false, err
			}
			forks++
			if out.Violation() != "" || historiesEqual(baseOut.Trace, out.Trace) {
				continue
			}
			pairs++
			tree := lincheck.NewTree()
			tree.Add(lincheck.FromTrace(baseOut.Trace))
			tree.Add(lincheck.FromTrace(out.Trace))
			res := tree.Check(r.DT)
			explored += res.Explored
			if !res.Linearizable {
				return i, v, forks, pairs, explored, true, nil
			}
		}
	}
	return 0, 0, forks, pairs, explored, false, nil
}

// historiesEqual reports whether two traces recorded identical observable
// histories (same invocations, responses, and times in order): such a
// fork changed only internals and yields a linear tree.
func historiesEqual(a, b *sim.Trace) bool {
	if len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		x, y := a.Ops[i], b.Ops[i]
		if x.Proc != y.Proc || x.Op != y.Op || x.InvokeTime != y.InvokeTime ||
			x.RespondTime != y.RespondTime ||
			!spec.ValuesEqual(x.Arg, y.Arg) || !spec.ValuesEqual(x.Ret, y.Ret) {
			return false
		}
	}
	return true
}

// ShrinkStrong reduces a strong-violation base schedule by the same delta
// debugging as Shrink, under the predicate "the candidate runs clean and
// some single-delay fork of it still refutes strong linearizability". The
// surviving fork is re-located after every accepted edit (edits renumber
// messages, so a fixed fork index would not survive); the scan order
// inside findFork keeps the result deterministic. A fork needs at least a
// mutator and an observer, so at least two operations stay. Returns the
// minimal base, its fork, and the engine runs spent (base and fork
// replays both count, capped near 4000).
func ShrinkStrong(r *Runner, s Schedule) (Schedule, int, simtime.Duration, int, error) {
	idx, delay, found := 0, simtime.Duration(0), false
	cur, runs, err := shrink(r, s, 4000, 2, func(c Schedule, out *Outcome) (bool, int, error) {
		if out.Violation() != "" {
			return false, 0, nil // a plain violation is Fuzz's prey, not ours
		}
		i, d, forks, _, _, ok, err := findFork(r, c, out)
		if ok {
			idx, delay, found = i, d, true
		}
		return ok, forks, err
	})
	if err != nil {
		return Schedule{}, 0, 0, runs, err
	}
	if !found {
		return cur, 0, 0, runs, fmt.Errorf("adversary: ShrinkStrong called on a non-violating schedule")
	}
	return cur, idx, delay, runs, nil
}

// WriteStrongReport renders a strong hunt's report as deterministic plain
// text, with both futures of each violating pair rendered as space-time
// diagrams and the diverging responses called out.
func WriteStrongReport(w io.Writer, r *Runner, rep *StrongReport) error {
	fmt.Fprintf(w, "target      %s on %s (strong linearizability)\n", rep.Target, r.DT.Name())
	fmt.Fprintf(w, "params      n=%d d=%v u=%v eps=%v X=%v\n",
		r.Params.N, r.Params.D, r.Params.U, r.Params.Epsilon, r.Params.X)
	fmt.Fprintf(w, "bases       %d (%d forks, %d clean diverging pairs)\n", rep.Bases, rep.Forks, rep.Pairs)
	fmt.Fprintf(w, "violations  %d\n", len(rep.Violations))
	for vi := range rep.Violations {
		v := &rep.Violations[vi]
		fmt.Fprintf(w, "\n--- strong violation %d (base schedule %d, strategy %s) ---\n",
			vi+1, v.Index, v.Strategy)
		base, fi, fd := v.Base, v.ForkIndex, v.ForkDelay
		if v.Shrunk != nil {
			fmt.Fprintf(w, "shrunk from %d ops / %d delays to %d ops / %d delays in %d runs\n",
				v.Base.NumOps(), len(v.Base.Delays),
				v.Shrunk.NumOps(), len(v.Shrunk.Delays), v.Runs)
			base, fi, fd = *v.Shrunk, v.ShrunkForkIndex, v.ShrunkForkDelay
		}
		fmt.Fprintf(w, "both futures linearizable; no prefix-preserving linearization covers both\n")
		fmt.Fprint(w, base.String())
		fmt.Fprintf(w, "fork: delay[%d] %v -> %v\n", fi, base.Delays[fi], fd)
		if err := writeStrongPair(w, r, base, fi, fd); err != nil {
			return err
		}
	}
	return nil
}

// writeStrongPair replays both futures at full trace level, reports the
// first diverging response, and renders the two diagrams.
func writeStrongPair(w io.Writer, r *Runner, base Schedule, forkIdx int, forkDelay simtime.Duration) error {
	rr := &Runner{Params: r.Params, DT: r.DT, Target: r.Target}
	baseOut, err := rr.Run(base)
	if err != nil {
		return err
	}
	forkOut, err := rr.Run(ForkOf(base, forkIdx, forkDelay))
	if err != nil {
		return err
	}
	for i := range baseOut.Trace.Ops {
		if i >= len(forkOut.Trace.Ops) {
			break
		}
		a, b := baseOut.Trace.Ops[i], forkOut.Trace.Ops[i]
		if a.Proc == b.Proc && a.Op == b.Op && !spec.ValuesEqual(a.Ret, b.Ret) {
			fmt.Fprintf(w, "diverging response: p%d %s(%s) returns %s / %s\n",
				a.Proc, a.Op, spec.FormatValue(a.Arg), spec.FormatValue(a.Ret), spec.FormatValue(b.Ret))
			break
		}
	}
	fmt.Fprintf(w, "future A (delay[%d]=%v):\n", forkIdx, base.Delays[forkIdx])
	fmt.Fprint(w, diagram.Render(baseOut.Trace, diagram.Options{SuppressMessages: true, MaxRows: 40}))
	fmt.Fprintf(w, "future B (delay[%d]=%v):\n", forkIdx, forkDelay)
	fmt.Fprint(w, diagram.Render(forkOut.Trace, diagram.Options{SuppressMessages: true, MaxRows: 40}))
	return nil
}
