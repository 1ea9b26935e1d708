package adversary

import (
	"fmt"
	"strings"

	"lintime/internal/harness"
	"lintime/internal/obs"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// Campaign throughput counters on the process-wide registry: a scraper
// differentiates schedules_total into schedules/sec, and the novelty
// hit rate is novelty_hits_total / schedules_total.
var (
	schedulesTotal  = obs.Default.Counter("adversary_schedules_total")
	noveltyHits     = obs.Default.Counter("adversary_novelty_hits_total")
	violationsTotal = obs.Default.Counter("adversary_violations_total")
	mutantKills     = obs.Default.Counter("adversary_mutant_kills_total")
)

// batchSize is the number of schedules harness.RunChunks evaluates
// between folds: the coverage pool and the stop-early decision change only
// there, so the schedules a campaign evaluates depend on (seed, budget,
// strategies) alone — never on parallelism.
const batchSize = 64

// poolCap bounds the coverage strategy's novelty pool (oldest evicted).
const poolCap = 128

// Options configures a fuzzing campaign or a strong-linearizability hunt.
type Options struct {
	Params simtime.Params
	DT     spec.DataType
	Target Target
	Seed   int64
	// Budget is the exact number of schedules to evaluate (base schedules
	// for StrongHunt, each spawning up to 2·|delays| fork runs); a budget
	// that is not a multiple of 64 ends on a short batch.
	Budget int
	// Strategies to interleave (round-robin by schedule index); nil
	// selects all of Strategies(). StrongHunt's order is fixed and
	// refuses any.
	Strategies []string
	// Parallel is the worker count for batch evaluation (harness
	// semantics: < 1 selects GOMAXPROCS).
	Parallel int
	// StopEarly stops at the end of the first batch containing a
	// violation — the mode used for mutant hunts, where one
	// counterexample suffices.
	StopEarly bool
	// Shrink reduces each reported violation to a minimal schedule.
	Shrink bool
}

// Violation is one schedule that broke a checked property.
type Violation struct {
	Index      int    // schedule index within the campaign
	Strategy   string // generating strategy
	Kind       string // KindNonLinearizable, KindDiverged, KindIncomplete
	Schedule   Schedule
	Shrunk     *Schedule // minimal reduction (when Options.Shrink)
	ShrunkKind string    // violation kind of the shrunk schedule
	Runs       int       // shrinker executions spent
}

// Report summarizes a fuzzing campaign.
type Report struct {
	Target     Target
	Schedules  int // schedules evaluated
	Signatures int // distinct event-ordering signatures observed
	ByStrategy map[string]int
	Violations []Violation
}

// Fuzz runs a campaign and returns its report. The report is a pure
// function of Options (minus Parallel): harness.RunChunks evaluates
// batches of schedules with per-index derived seeds and folds them in
// index order.
func Fuzz(opts Options) (*Report, error) {
	p := opts.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Crash-tolerant targets get the fault axes (crashes, drops) mixed
	// into random and coverage candidates plus the deterministic
	// faultcorner strategy; the boundary strategy stays fault-free (its
	// rule-based schedules probe the timing bounds, which assume reliable
	// delivery). Against reliable targets the default strategy set drops
	// faultcorner silently — so existing campaigns are byte-identical —
	// while requesting it explicitly is an error.
	// The campaign never reads Steps: coverage signatures come from the
	// engine's incremental hash, so the runner skips recording them.
	runner := &Runner{Params: p, DT: opts.DT, Target: opts.Target, Trace: sim.TraceOps}
	if err := runner.resolve(); err != nil {
		return nil, err
	}
	faults := runner.backend.Faults
	explicit := len(opts.Strategies) > 0
	requested := opts.Strategies
	if !explicit {
		requested = Strategies()
	}
	enabled := make([]string, 0, len(requested))
	for _, s := range requested {
		switch s {
		case StratBoundary, StratRandom, StratCoverage:
			enabled = append(enabled, s)
		case StratFaultCorner:
			if !faults {
				if explicit {
					return nil, fmt.Errorf("adversary: strategy %q applies only to crash-tolerant targets (have %s)", s, opts.Target)
				}
				continue
			}
			enabled = append(enabled, s)
		default:
			return nil, fmt.Errorf("adversary: unknown strategy %q (have %s)", s, strings.Join(Strategies(), ", "))
		}
	}
	if len(enabled) == 0 {
		return nil, fmt.Errorf("adversary: no applicable strategies for target %s", opts.Target)
	}
	if opts.Budget <= 0 {
		opts.Budget = batchSize
	}
	ops := opsFor(opts.DT)
	var corners []candidate
	if faults {
		corners = faultCorners(p, ops)
	}
	boundary := newBoundarySource(p, ops)

	rep := &Report{Target: opts.Target, ByStrategy: map[string]int{}}
	seen := map[uint64]bool{}
	var pool []Schedule // coverage novelty pool, index order

	// A slot keeps what fold reads of a run, so the run's outcome can stay
	// borrowed.
	type slot struct {
		strategy string
		sched    Schedule
		sig      uint64
		kind     string
	}
	eval := func(i int) (slot, error) {
		sl := slot{strategy: enabled[i%len(enabled)]}
		ordinal := i / len(enabled)
		keep := func(out *Outcome) error {
			sl.sig, sl.kind = out.Signature(), out.Violation()
			return nil
		}
		var err error
		switch sl.strategy {
		case StratBoundary:
			cand := boundary.candidateAt(p, ops, opts.Seed, ordinal)
			s := Schedule{Offsets: cand.offsets, Plans: cand.plans}
			err = runner.visit(s, cand.net, func(out *Outcome) error {
				sl.sched = runner.concretize(s, out.Trace)
				return keep(out)
			})
		case StratRandom:
			sl.sched = randomCandidate(p, ops, opts.Seed, "random", ordinal, faults).sched
		case StratCoverage:
			if len(pool) == 0 {
				sl.sched = randomCandidate(p, ops, opts.Seed, "coverage-seed", ordinal, faults).sched
			} else {
				rng := seededRand(labelSeed(opts.Seed, "coverage", ordinal))
				parent := pool[rng.Intn(len(pool))]
				sl.sched = mutateSchedule(parent, p, ops, rng, faults)
				rngPool.Put(rng)
			}
		case StratFaultCorner:
			if len(corners) == 0 { // degenerate n: no corners apply
				sl.sched = randomCandidate(p, ops, opts.Seed, "faultcorner-fill", ordinal, faults).sched
			} else {
				sl.sched = corners[ordinal%len(corners)].sched
			}
		}
		if sl.strategy != StratBoundary {
			err = runner.Visit(sl.sched, keep)
		}
		return sl, err
	}
	// fold updates the coverage pool, signature set and violations.
	fold := func(i int, sl slot) (bool, error) {
		rep.Schedules++
		schedulesTotal.Inc()
		rep.ByStrategy[sl.strategy]++
		if !seen[sl.sig] {
			seen[sl.sig] = true
			noveltyHits.Inc()
			if len(pool) == poolCap {
				pool = pool[1:]
			}
			pool = append(pool, sl.sched)
		}
		if sl.kind == "" {
			return false, nil
		}
		violationsTotal.Inc()
		v := Violation{Index: i, Strategy: sl.strategy, Kind: sl.kind, Schedule: sl.sched}
		if opts.Shrink {
			shrunk, shrunkKind, runs, err := Shrink(runner, sl.sched)
			if err != nil {
				return false, err
			}
			v.Shrunk = &shrunk
			v.ShrunkKind = shrunkKind
			v.Runs = runs
		}
		rep.Violations = append(rep.Violations, v)
		return opts.StopEarly, nil
	}
	if err := harness.RunChunks(opts.Budget, batchSize, opts.Parallel, eval, fold); err != nil {
		return nil, err
	}
	rep.Signatures = len(seen)
	return rep, nil
}

// KillEntry is one row of the fuzzing kill matrix; a kill's witness is
// the campaign's first violation (shrunk when Options.Shrink).
type KillEntry = harness.KillEntry[*Violation]

// KillMatrix fuzzes each harness.KillMatrix row of the target's backend
// with the given per-row budget, stopping at the first violating batch; a
// kill's Runs counts schedules up to the first violating one.
func KillMatrix(opts Options) ([]KillEntry, error) {
	return harness.KillMatrix(opts.Target.Algorithm, mutantKills, func(m harness.Mutant) (KillEntry, error) {
		o := opts
		o.Target = Target{Algorithm: opts.Target.Algorithm, Mutant: m.Name}
		o.StopEarly = true
		rep, err := Fuzz(o)
		if err != nil {
			return KillEntry{}, err
		}
		if len(rep.Violations) == 0 {
			return KillEntry{Runs: rep.Schedules}, nil
		}
		v := &rep.Violations[0]
		return KillEntry{Killed: true, Kind: v.Kind, Runs: v.Index + 1, Witness: v}, nil
	})
}

// SortedStrategies returns the strategy names of a report's counter map
// in fixed registry order (for deterministic rendering).
func (r *Report) SortedStrategies() []string {
	names := make([]string, 0, len(r.ByStrategy))
	for _, s := range Strategies() {
		if r.ByStrategy[s] > 0 {
			names = append(names, s)
		}
	}
	return names
}
