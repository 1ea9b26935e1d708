// Package bmc is a bounded model checker over the simulation substrate:
// for tiny configurations it enumerates EVERY adversary schedule of a
// quantized admissible space and drives each one through the deterministic
// engine, checking linearizability, completeness, and replica convergence
// on every run. Where the fuzzer samples the schedule space, the model
// checker exhausts it — within explicitly declared bounds — so a clean
// sweep is a proof that the timer discipline is correct on that space,
// and a mutant kill is a certificate that the space contains a
// counterexample.
//
// The quantized space is the product of three axes:
//
//   - Plans: every distribution of 1..MaxOps operations over the n
//     processes, each slot drawing any declared operation. The first
//     operation of a plan starts at 0 or at one of the backend's own
//     start instants (harness.Backend.Starts: for Algorithm 1 the
//     midpoint of the accessor timestamp window, where backdating makes
//     an accessor interesting); later operations follow the previous
//     response after a gap from {0, 5d} (immediately, or as a
//     post-quiescence probe that reads committed state). Arguments spread
//     deterministically across slots so reorderings stay observable.
//   - Offsets: every clock-offset assignment in {0, ε}^n with at least
//     one process at zero (shifting every local clock uniformly is
//     behaviorally identical, so those points are skipped). A clock-free
//     backend collapses the axis to all-zero.
//   - Delays: every per-message delay vector in {d-u, d}^M, the extremes
//     of the admissible interval, where M is the number of messages the
//     plan sends.
//
// A fault-tolerant backend opens a fourth axis: every minority subset of
// processes crashed from time zero. An operation invoked at a crashed
// process is suppressed and sends nothing.
//
// M is measured, not modeled. NewSpace runs each operation alone, at each
// live process under each crash placement, with every delay d; a plan's M
// is the sum of its operations' solo counts, so the space's size is known
// before the sweep. A run that sends another count is still checked, and
// counted in Report.Miscounted; if it sent more, its context's delay axis
// widens to cover every send (sweepCodes), so the sweep stays exhaustive
// whatever the protocol does.
//
// Delay quantization to the interval endpoints is the one lossy axis:
// an interior delay can realize an arrival order that no extremal vector
// does. The bounds are part of the claim, and every schedule still runs
// through adversary.Runner, so the canonical admissibility predicate —
// not a private copy — gates exactly what the checker may explore.
//
// A space may also be drop-augmented (Config.Drops): a fixed set of send
// ordinals is lost in every schedule. Lost sends still consume delay-
// vector slots, but the retransmissions they provoke exceed the measured
// message count and run at the default delay d — so a drop-augmented
// space is exhaustive over the first measured ordinals only. It exists
// for targeted kill certificates (skip-writeback needs real message
// loss), not for cleanliness sweeps.
//
// Beyond per-run checks, the checker optionally performs a strong-
// linearizability sweep: all distinct histories of one (plan, offsets)
// context — the futures an adversary can force by resolving each
// message delay either way — are folded into one lincheck prefix
// tree. A context whose futures are individually linearizable but admit
// no prefix-preserving linearization is exactly the
// Chandra–Hadzilacos–Jayanti–Toueg phenomenon, quantified exhaustively.
package bmc

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"strconv"

	"lintime/internal/adversary"
	"lintime/internal/harness"
	"lintime/internal/lincheck"
	"lintime/internal/obs"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// State-space counters on the process-wide registry.
var (
	runsTotal       = obs.Default.Counter("bmc_runs_total")
	contextsTotal   = obs.Default.Counter("bmc_contexts_total")
	violationsTotal = obs.Default.Counter("bmc_violations_total")
	strongViolTotal = obs.Default.Counter("bmc_strong_violations_total")
)

// chunkSize is the number of contexts harness.RunChunks evaluates between
// folds; the stop-early decision is taken only there, so results are
// independent of parallelism.
const chunkSize = 64

// maxStoredViolations bounds the schedules embedded in a report.
const maxStoredViolations = 4

// Config bounds the model-checking space.
type Config struct {
	Params simtime.Params
	DT     spec.DataType
	// Target selects a backend of the harness table, plus optionally one
	// of its mutants.
	Target adversary.Target
	// MaxOps caps the total planned operations per schedule (default 2).
	MaxOps int
	// Drops lists send ordinals lost in transit in every schedule of the
	// space (fault-tolerant targets only). See the package doc for the weakened
	// exhaustiveness claim of a drop-augmented space.
	Drops []int64
	// Strong folds each context's futures into a lincheck.Tree and
	// counts contexts with no prefix-preserving linearization.
	Strong bool
	// StopEarly stops at the first chunk containing a violation.
	StopEarly bool
	// Parallel is the worker count (harness semantics: <1 = GOMAXPROCS).
	Parallel int
}

// Smoke returns the CI-sized configuration: n=2, three operations,
// strong sweep on — about 10k runs, exhausted in well under a second.
func Smoke(dt spec.DataType, target adversary.Target) Config {
	return Config{
		Params: simtime.DefaultParams(2),
		DT:     dt,
		Target: target,
		MaxOps: 3,
		Strong: true,
	}
}

// planSlot is one enumerated operation choice.
type planSlot struct {
	op   spec.OpInfo
	kind int // op's index in the data type's Ops, keying its measured sends
	gap  simtime.Duration
}

// plan is one enumerated invocation plan.
type plan struct {
	procs [][]planSlot
	ops   int
}

// placement is one enumerated crash assignment: some processes crash at
// time zero. The zero placement (nil crashes) is the fault-free run
// present in every space.
type placement struct {
	crashes []simtime.Time // per-process crash times; nil = fault-free
	sends   [][]int        // per process, per op kind: messages the op sends alone
}

// Space is the enumerated schedule space of one Config.
type Space struct {
	cfg        Config
	backend    *harness.Backend
	runner     *adversary.Runner
	plans      []plan
	offsets    [][]simtime.Duration
	placements []placement
	runs       int
}

// NewSpace enumerates the space. The enumeration order is fixed: plans
// by ascending op count, then by composition and slot choices; offsets
// in binary-counter order; crash placements by ascending crash count
// then mask order; delay vectors in binary-counter order with bit i
// selecting message i's delay (0 = d, 1 = d-u).
func NewSpace(cfg Config) (*Space, error) {
	p := cfg.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	backend, err := harness.Lookup(cfg.Target.Algorithm)
	if err != nil {
		return nil, err
	}
	if len(cfg.Drops) > 0 && !backend.Faults {
		return nil, fmt.Errorf("bmc: drop augmentation needs a fault-tolerant target (have %s)", cfg.Target)
	}
	s := &Space{cfg: cfg, backend: backend, runner: &adversary.Runner{
		Params: p, DT: cfg.DT, Target: cfg.Target, Trace: sim.TraceOps,
	}}
	if s.cfg.MaxOps <= 0 {
		s.cfg.MaxOps = 2
	}
	s.enumeratePlans()
	s.enumerateOffsets()
	s.enumeratePlacements()
	// The first solo run also resolves the target: an unknown mutant, a
	// type the backend cannot serve or a refused timers value ends here.
	if err := s.measureSends(); err != nil {
		return nil, err
	}
	for _, pl := range s.plans {
		for _, pc := range s.placements {
			s.runs += len(s.offsets) << s.planMsgs(pl, pc)
		}
	}
	return s, nil
}

// measureSends runs every operation alone at every process under
// every crash placement — invoked at time zero, every delay d, nothing
// dropped — and records how many messages it sends: that operation's
// share of a plan's message count. An operation at a crashed process is
// suppressed by the engine and measures 0.
func (s *Space) measureSends() error {
	n := s.cfg.Params.N
	ops := s.cfg.DT.Ops()
	for i := range s.placements {
		pc := &s.placements[i]
		pc.sends = make([][]int, n)
		for proc := range pc.sends {
			pc.sends[proc] = make([]int, len(ops))
			for k, op := range ops {
				plans := make([][]adversary.PlannedOp, n)
				plans[proc] = []adversary.PlannedOp{{Op: op.Name, Arg: op.Args[0]}}
				out, err := s.runner.Run(adversary.Schedule{
					Offsets: make([]simtime.Duration, n), Plans: plans, Crashes: pc.crashes,
				})
				if err != nil {
					return err
				}
				pc.sends[proc][k] = len(out.Trace.Msgs)
			}
		}
	}
	return nil
}

// planMsgs is the measured message count of one plan under one crash
// placement: the sum of its operations' solo counts.
func (s *Space) planMsgs(pl plan, pc placement) int {
	msgs := 0
	for proc, seq := range pl.procs {
		for _, sl := range seq {
			msgs += pc.sends[proc][sl.kind]
		}
	}
	return msgs
}

// probeGap is the post-quiescence gap: an op this long after the
// previous response observes fully committed replica state.
func probeGap(p simtime.Params) simtime.Duration { return 5 * p.D }

func (s *Space) enumeratePlans() {
	p := s.cfg.Params
	ops := s.cfg.DT.Ops()
	// First-op start instants: 0 and the backend's own, deduplicated
	// ascending.
	raw := append([]simtime.Duration{0}, s.backend.Starts(p)...)
	starts := raw[:1]
	for _, t := range raw[1:] {
		if t > starts[len(starts)-1] {
			starts = append(starts, t)
		}
	}
	gaps := []simtime.Duration{0, probeGap(p)}

	procs := make([][]planSlot, p.N)
	var rec func(proc, remaining int)
	emit := func() {
		pl := plan{procs: make([][]planSlot, p.N)}
		for i, seq := range procs {
			pl.procs[i] = append([]planSlot(nil), seq...)
			pl.ops += len(seq)
		}
		if pl.ops > 0 {
			s.plans = append(s.plans, pl)
		}
	}
	var recSlots func(proc, count, remaining int)
	recSlots = func(proc, count, remaining int) {
		if count == 0 {
			rec(proc+1, remaining)
			return
		}
		choices := gaps
		if len(procs[proc]) == 0 {
			choices = starts
		}
		for k, op := range ops {
			for _, g := range choices {
				procs[proc] = append(procs[proc], planSlot{op: op, kind: k, gap: g})
				recSlots(proc, count-1, remaining)
				procs[proc] = procs[proc][:len(procs[proc])-1]
			}
		}
	}
	rec = func(proc, remaining int) {
		if proc == p.N {
			if remaining < s.cfg.MaxOps {
				emit()
			}
			return
		}
		for count := 0; count <= remaining; count++ {
			recSlots(proc, count, remaining-count)
		}
	}
	rec(0, s.cfg.MaxOps)
}

func (s *Space) enumerateOffsets() {
	p := s.cfg.Params
	if p.Epsilon == 0 || s.backend.ClockFree {
		s.offsets = [][]simtime.Duration{make([]simtime.Duration, p.N)}
		return
	}
	for mask := 0; mask < 1<<p.N; mask++ {
		if mask == 1<<p.N-1 {
			continue // uniform shift of all clocks: identical behavior
		}
		off := make([]simtime.Duration, p.N)
		for i := 0; i < p.N; i++ {
			if mask&(1<<i) != 0 {
				off[i] = p.Epsilon
			}
		}
		s.offsets = append(s.offsets, off)
	}
}

// enumeratePlacements builds the crash axis: the fault-free placement
// always, plus — for fault-tolerant targets — every minority subset of
// processes crashed from time zero, by ascending crash count then mask.
func (s *Space) enumeratePlacements() {
	s.placements = []placement{{}}
	if !s.backend.Faults {
		return
	}
	p := s.cfg.Params
	maxCrash := (p.N - 1) / 2
	for size := 1; size <= maxCrash; size++ {
		for mask := uint64(1); mask < 1<<uint(p.N); mask++ {
			if bits.OnesCount64(mask) != size {
				continue
			}
			crashes := make([]simtime.Time, p.N)
			for i := 0; i < p.N; i++ {
				if mask&(1<<uint(i)) != 0 {
					crashes[i] = 0
				} else {
					crashes[i] = simtime.Infinity
				}
			}
			s.placements = append(s.placements, placement{crashes: crashes})
		}
	}
}

// Contexts returns the number of (plan, offsets, placement) contexts.
func (s *Space) Contexts() int { return len(s.plans) * len(s.offsets) * len(s.placements) }

// Runs returns the total number of schedule executions in the space.
func (s *Space) Runs() int { return s.runs }

// Plans returns the number of enumerated invocation plans.
func (s *Space) Plans() int { return len(s.plans) }

// OffsetPatterns returns the number of enumerated clock-offset patterns.
func (s *Space) OffsetPatterns() int { return len(s.offsets) }

// CrashPlacements returns the number of enumerated crash placements
// (1 — the fault-free placement — for crash-intolerant targets).
func (s *Space) CrashPlacements() int { return len(s.placements) }

// context materializes context i as a reusable schedule skeleton: the
// plan, offsets, and crash placement are shared (the runner never
// mutates them), only the delay vector varies per run.
func (s *Space) context(i int) (base adversary.Schedule, msgs int) {
	perPlan := len(s.offsets) * len(s.placements)
	pl := s.plans[i/perPlan]
	rem := i % perPlan
	off := s.offsets[rem/len(s.placements)]
	pc := s.placements[rem%len(s.placements)]
	plans := make([][]adversary.PlannedOp, len(pl.procs))
	slot := 0
	for proc, seq := range pl.procs {
		for _, sl := range seq {
			plans[proc] = append(plans[proc], adversary.PlannedOp{
				Op:  sl.op.Name,
				Arg: sl.op.Args[slot%len(sl.op.Args)],
				Gap: sl.gap,
			})
			slot++
		}
	}
	base = adversary.Schedule{Offsets: off, Plans: plans}
	if pc.crashes != nil {
		base.Crashes = pc.crashes
	}
	if len(s.cfg.Drops) > 0 {
		base.Drops = s.cfg.Drops
	}
	return base, s.planMsgs(pl, pc)
}

// Schedule materializes the schedule of context i under delay vector
// code (bit j of code selects message j's delay: 0 = d, 1 = d-u).
func (s *Space) Schedule(i int, code uint64) adversary.Schedule {
	base, msgs := s.context(i)
	base.Delays = s.delays(code, msgs)
	return base
}

func (s *Space) delays(code uint64, msgs int) []simtime.Duration {
	p := s.cfg.Params
	delays := make([]simtime.Duration, msgs)
	for j := 0; j < msgs; j++ {
		if code&(1<<uint(j)) != 0 {
			delays[j] = p.MinDelay()
		} else {
			delays[j] = p.D
		}
	}
	return delays
}

// FindContext returns the index of the first context matching the
// predicate, or -1. It lets tests and reports address a known schedule
// shape inside the enumerated space without sweeping it.
func (s *Space) FindContext(match func(sched adversary.Schedule) bool) int {
	for i := 0; i < s.Contexts(); i++ {
		base, _ := s.context(i)
		if match(base) {
			return i
		}
	}
	return -1
}

// contextResult is the fold input of one context.
type contextResult struct {
	runs       int
	miscounted int      // runs whose message count was not the context's
	sigs       []uint64 // in first-seen order
	histFPs    []uint64 // distinct history fingerprints, first-seen order
	violation  *Violation
	strongDone bool
	strongBad  bool
	branches   int
	treeOps    int // the strong sweep's tree.Ops(), not a search-state count
}

// Violation is one schedule that broke a checked property, addressed by
// its coordinates in the enumeration.
type Violation struct {
	Context   int                `json:"context"`
	DelayCode uint64             `json:"delay_code"`
	Kind      string             `json:"kind"`
	Schedule  adversary.Schedule `json:"schedule"`
}

// StrongViolation identifies a context whose futures admit no
// prefix-preserving linearization although each is linearizable.
type StrongViolation struct {
	Context  int `json:"context"`
	Branches int `json:"branches"`
	Ops      int `json:"ops"` // the context tree's Tree.Ops()
}

// Verify exhausts the space and reports. The report is a pure function
// of the Config (minus Parallel): harness.RunChunks evaluates chunks of
// contexts and folds them in index order.
func Verify(cfg Config) (*Report, error) {
	space, err := NewSpace(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Target:         cfg.Target.String(),
		Params:         cfg.Params,
		MaxOps:         space.cfg.MaxOps,
		Plans:          space.Plans(),
		OffsetPatterns: space.OffsetPatterns(),
		Contexts:       space.Contexts(),
		TotalRuns:      space.Runs(),
		OK:             true,
	}
	// Reported only when the crash axis is non-trivial, so reports (and
	// goldens) of crash-intolerant targets are unchanged.
	if space.CrashPlacements() > 1 {
		rep.CrashPlacements = space.CrashPlacements()
	}
	if len(cfg.Drops) > 0 {
		rep.Drops = append([]int64(nil), cfg.Drops...)
	}
	seenSigs := map[uint64]bool{}
	seenHists := map[uint64]bool{}

	eval := func(ctx int) (contextResult, error) { return space.checkContext(space.runner, ctx) }
	fold := func(ctx int, res contextResult) (bool, error) {
		contextsTotal.Inc()
		rep.Runs += res.runs
		rep.Miscounted += res.miscounted
		runsTotal.Add(int64(res.runs))
		for _, sig := range res.sigs {
			seenSigs[sig] = true
		}
		for _, fp := range res.histFPs {
			seenHists[fp] = true
		}
		if res.strongDone {
			rep.StrongChecked++
			rep.StrongExplored += res.treeOps
			if res.strongBad {
				rep.StrongViolations++
				strongViolTotal.Inc()
				if len(rep.StrongExamples) < maxStoredViolations {
					rep.StrongExamples = append(rep.StrongExamples, StrongViolation{
						Context: ctx, Branches: res.branches, Ops: res.treeOps,
					})
				}
			}
		}
		if res.violation == nil {
			return false, nil
		}
		rep.OK = false
		rep.ViolationsTotal++
		violationsTotal.Inc()
		if len(rep.Violations) < maxStoredViolations {
			rep.Violations = append(rep.Violations, *res.violation)
		}
		rep.Stopped = cfg.StopEarly
		return cfg.StopEarly, nil
	}
	if err := harness.RunChunks(space.Contexts(), chunkSize, cfg.Parallel, eval, fold); err != nil {
		return nil, err
	}
	rep.Signatures = len(seenSigs)
	rep.Histories = len(seenHists)
	return rep, nil
}

// checkContext runs every delay vector of one context and, when
// configured, the strong-linearizability sweep over its futures.
func (s *Space) checkContext(runner *adversary.Runner, ctx int) (contextResult, error) {
	base, msgs := s.context(ctx)
	var res contextResult
	sigSeen := map[uint64]bool{}
	histSeen := map[uint64]bool{}
	var histories [][]lincheck.Op
	var err error
	res.miscounted, err = sweepCodes(msgs, func(code uint64, width int) (int, error) {
		sched := base
		sched.Delays = s.delays(code, width)
		out, err := runner.Run(sched)
		if err != nil {
			return 0, err
		}
		sent := len(out.Trace.Msgs)
		if len(s.cfg.Drops) > 0 {
			// Drop-augmented spaces bend the count both ways: a dropped
			// request suppresses the ack it would have provoked (at most
			// one missing message per drop), while retransmissions add
			// messages beyond the measured count, which run at the
			// default delay d rather than widening the axis. Anything
			// below the floor means the space is not what it claims.
			if floor := msgs - len(s.cfg.Drops); sent < floor {
				return 0, fmt.Errorf("bmc: context %d sent %d messages, floor is %d", ctx, sent, floor)
			}
			sent = msgs
		}
		res.runs++
		if sig := out.Signature(); !sigSeen[sig] {
			sigSeen[sig] = true
			res.sigs = append(res.sigs, sig)
		}
		if kind := out.Violation(); kind != "" && res.violation == nil {
			res.violation = &Violation{Context: ctx, DelayCode: code, Kind: kind, Schedule: sched}
		}
		history := lincheck.FromTrace(out.Trace)
		if fp := historyFingerprint(history); !histSeen[fp] {
			histSeen[fp] = true
			res.histFPs = append(res.histFPs, fp)
			histories = append(histories, history)
		}
		return sent, nil
	})
	if err != nil {
		return res, err
	}
	// The strong sweep is meaningful only when every future is clean:
	// a plain violation already condemns the context.
	if s.cfg.Strong && res.violation == nil {
		tree := lincheck.NewTree()
		for _, h := range histories {
			tree.Add(h)
		}
		st := tree.Check(s.cfg.DT)
		res.strongDone = true
		res.strongBad = !st.Linearizable
		res.branches = tree.Branches()
		res.treeOps = tree.Ops()
	}
	return res, nil
}

// sweepCodes runs the delay codes of one context whose plan sends width
// messages by its measured count: every code below 2^width in ascending
// order, where a run that sends more than width messages widens the sweep
// to its count. A run reads only the delay bits of its own sends, and a
// send past the vector's end gets d, bit 0, so each combination of the
// bits some run reads is reached; codes that differ only past a run's
// last send repeat that run. run gets the code and the current width and
// returns the number of messages the run sent. sweepCodes returns how
// many runs sent a count other than the context's width.
func sweepCodes(width int, run func(code uint64, width int) (sent int, err error)) (miscounted int, err error) {
	want := width
	for code := uint64(0); code < 1<<uint(width); code++ {
		sent, err := run(code, width)
		if err != nil {
			return miscounted, err
		}
		if sent != want {
			miscounted++
		}
		width = max(width, sent)
	}
	return miscounted, nil
}

// historyFingerprint hashes a completed history's observable content.
// The bytes hashed are "proc·name·arg·invoke·respond·ret;" per operation
// (values as spec.FormatValue renders them) under 64-bit FNV-1a.
func historyFingerprint(history []lincheck.Op) uint64 {
	buf := make([]byte, 0, 256)
	for _, op := range history {
		buf = strconv.AppendInt(buf, int64(op.Proc), 10)
		buf = append(append(buf, "·"...), op.Name...)
		buf = append(append(buf, "·"...), spec.FormatValue(op.Arg)...)
		buf = strconv.AppendInt(append(buf, "·"...), int64(op.Invoke), 10)
		buf = strconv.AppendInt(append(buf, "·"...), int64(op.Respond), 10)
		buf = append(append(buf, "·"...), spec.FormatValue(op.Ret)...)
		buf = append(buf, ';')
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}
