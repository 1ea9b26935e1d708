// Package adversary searches the space of admissible executions of the
// paper's model for linearizability violations. The paper's guarantees
// quantify over *every* execution with message delays in [d-u, d] and
// clock skew at most ε; the hand-picked runs in the unit tests visit only
// a few corners of that space. This package generates admissible
// adversaries — explicit per-message delay assignments, per-process clock
// offsets, and operation-invocation timings — and drives Algorithm 1, the
// folklore baselines, and deliberately broken mutants through them,
// checking every resulting trace with the linearizability checker.
//
// Three generation strategies are provided (boundary/corner schedules,
// biased-random schedules, and a coverage-greedy mode that maximizes
// distinct event-ordering signatures), plus a delta-debugging shrinker
// that reduces any violating schedule to a minimal counterexample and
// renders it as a space-time diagram. The whole pipeline follows the
// repository's determinism convention: every random stream is derived
// from (master seed, stream id) via harness.DeriveSeed, and
// harness.RunChunks evaluates batches in parallel and folds them in index
// order, so output is byte-identical at every parallelism level.
package adversary

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"lintime/internal/harness"
	"lintime/internal/lincheck"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// PlannedOp is one operation of a process's invocation plan. For the
// first op of a plan Gap is the absolute invocation time; for every later
// op it is the wait between the previous response and the next
// invocation, so plans always respect the model's one-pending-op-per-
// process constraint.
type PlannedOp struct {
	Op  string
	Arg spec.Value
	Gap simtime.Duration
}

// Schedule is one fully explicit admissible adversary: clock offsets per
// process (within the skew bound), a delay for each message by global
// send order (within [d-u, d]; sends past the end of the vector get the
// maximum delay d), and an invocation plan per process. Against
// crash-tolerant targets two fault axes extend the format: per-process
// crash times (at most a minority finite, preserving quorum liveness)
// and per-message loss by send ordinal.
type Schedule struct {
	Offsets []simtime.Duration
	Delays  []simtime.Duration
	Plans   [][]PlannedOp

	// Crashes holds one crash time per process (simtime.Infinity =
	// never). Empty means no crashes. Only crash-tolerant targets accept
	// a non-empty axis.
	Crashes []simtime.Time
	// Drops lists send ordinals lost in transit.
	Drops []int64
}

// Clone returns a deep copy (argument values are shared).
func (s Schedule) Clone() Schedule {
	out := Schedule{
		Offsets: append([]simtime.Duration(nil), s.Offsets...),
		Delays:  append([]simtime.Duration(nil), s.Delays...),
		Plans:   make([][]PlannedOp, len(s.Plans)),
		Crashes: append([]simtime.Time(nil), s.Crashes...),
		Drops:   append([]int64(nil), s.Drops...),
	}
	for i, plan := range s.Plans {
		out.Plans[i] = append([]PlannedOp(nil), plan...)
	}
	return out
}

// HasFaults reports whether the schedule uses either fault axis.
func (s Schedule) HasFaults() bool {
	return len(s.Drops) > 0 || s.NumCrashed() > 0
}

// NumCrashed returns the number of processes with a finite crash time.
func (s Schedule) NumCrashed() int {
	n := 0
	for _, c := range s.Crashes {
		if c != simtime.Infinity {
			n++
		}
	}
	return n
}

// NumOps returns the total number of planned invocations.
func (s Schedule) NumOps() int {
	n := 0
	for _, plan := range s.Plans {
		n += len(plan)
	}
	return n
}

// Validate checks the schedule against the model parameters and the data
// type: offsets within the skew bound, delays within [d-u, d],
// nonnegative gaps, and every planned op declared by dt.
func (s Schedule) Validate(p simtime.Params, dt spec.DataType) error {
	return s.validate(p, dt.Name(), func(op string) bool {
		_, ok := spec.FindOp(dt, op)
		return ok
	})
}

// validate is the body of Validate with the op lookup abstracted: the
// Runner substitutes a cached name set, because dt.Ops() allocates its
// OpInfo slice on every call and Validate runs once per schedule.
func (s Schedule) validate(p simtime.Params, dtName string, hasOp func(string) bool) error {
	if len(s.Offsets) != p.N {
		return fmt.Errorf("adversary: %d offsets for n=%d", len(s.Offsets), p.N)
	}
	if err := sim.ValidateOffsets(s.Offsets, p.Epsilon); err != nil {
		return err
	}
	if err := (sim.SequenceNetwork{Delays: s.Delays, Default: p.D}).Validate(p); err != nil {
		return err
	}
	if len(s.Plans) != p.N {
		return fmt.Errorf("adversary: %d plans for n=%d", len(s.Plans), p.N)
	}
	for proc, plan := range s.Plans {
		for i, op := range plan {
			if op.Gap < 0 {
				return fmt.Errorf("adversary: p%d op %d has negative gap %v", proc, i, op.Gap)
			}
			if !hasOp(op.Op) {
				return fmt.Errorf("adversary: type %s has no operation %q", dtName, op.Op)
			}
		}
	}
	if len(s.Crashes) != 0 && len(s.Crashes) != p.N {
		return fmt.Errorf("adversary: %d crash times for n=%d", len(s.Crashes), p.N)
	}
	for proc, c := range s.Crashes {
		if c != simtime.Infinity && c < 0 {
			return fmt.Errorf("adversary: p%d crash time %v is negative", proc, c)
		}
	}
	// The fault model allows only a minority of crashes: a crashed
	// majority stalls every quorum, so incompleteness would stop
	// witnessing bugs.
	if crashed := s.NumCrashed(); crashed > (p.N-1)/2 {
		return fmt.Errorf("adversary: %d crashes exceed the minority bound for n=%d", crashed, p.N)
	}
	for _, ix := range s.Drops {
		if ix < 0 {
			return fmt.Errorf("adversary: drop ordinal %d is negative", ix)
		}
	}
	return nil
}

// String renders the schedule compactly; '@' marks the absolute start of
// a plan's first op, '@+' the gap after the previous response.
func (s Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "offsets %v\n", s.Offsets)
	fmt.Fprintf(&b, "delays  %v (then d)\n", s.Delays)
	if s.NumCrashed() > 0 {
		fmt.Fprintf(&b, "crashes")
		for proc, c := range s.Crashes {
			if c != simtime.Infinity {
				fmt.Fprintf(&b, " p%d@%v", proc, c)
			}
		}
		b.WriteByte('\n')
	}
	if len(s.Drops) > 0 {
		fmt.Fprintf(&b, "drops   %v\n", s.Drops)
	}
	for proc, plan := range s.Plans {
		if len(plan) == 0 {
			continue
		}
		fmt.Fprintf(&b, "p%d:", proc)
		for i, op := range plan {
			sep := " "
			at := fmt.Sprintf("@+%v", op.Gap)
			if i == 0 {
				at = fmt.Sprintf("@%v", op.Gap)
			} else {
				sep = " | "
			}
			fmt.Fprintf(&b, "%s%s(%s)%s", sep, op.Op, spec.FormatValue(op.Arg), at)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Violation kinds.
const (
	KindNonLinearizable = "non-linearizable"
	KindDiverged        = "diverged"
	KindIncomplete      = "incomplete"
)

// Outcome is the checked result of driving one schedule through a target.
type Outcome struct {
	Trace        *sim.Trace
	Check        lincheck.Result
	Fingerprints []string // per-replica object state (core targets only)
	Incomplete   bool     // some invocation never responded

	sig    uint64 // event-ordering signature, cached by the Runner
	hasSig bool
}

// Converged reports whether all replicas ended in the same state (always
// true for targets that do not expose per-replica state).
func (o *Outcome) Converged() bool {
	for i := 1; i < len(o.Fingerprints); i++ {
		if o.Fingerprints[i] != o.Fingerprints[0] {
			return false
		}
	}
	return true
}

// Violation returns the most severe property violated by the outcome, or
// "" if the run satisfied every checked property. Non-linearizability is
// reported first: it is the black-box condition the paper promises.
// Divergence (replicas committing different states) is caught even when
// no accessor happened to observe it yet.
func (o *Outcome) Violation() string {
	switch {
	case !o.Check.Linearizable:
		return KindNonLinearizable
	case o.Incomplete:
		return KindIncomplete
	case !o.Converged():
		return KindDiverged
	default:
		return ""
	}
}

// Signature is a hash of the run's event ordering: the sequence of
// (event kind, process) pairs in processing order plus each message's
// endpoints in delivery order. Two runs with the same signature exercised
// the same interleaving; the coverage-greedy strategy hunts for schedules
// whose signatures have not been seen before.
// fnvPrime is the FNV-1a 64-bit prime, used to continue the engine's
// incremental step hash over message records.
const fnvPrime = 1099511628211

// Runner-produced outcomes carry the signature precomputed from the
// engine's incremental step hash, so it is available even when step
// recording is off (sim.TraceOps); hand-built outcomes fall back to
// hashing the recorded trace.
func (o *Outcome) Signature() uint64 {
	if o.hasSig {
		return o.sig
	}
	return signatureFromTrace(o.Trace)
}

// signatureFromTrace is the original full-trace signature computation,
// retained as the fallback for outcomes not produced by a Runner and as
// the oracle the cached value is tested against.
func signatureFromTrace(tr *sim.Trace) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 2)
	for _, st := range tr.Steps {
		buf[0] = byte(st.Kind)
		buf[1] = byte(st.Proc)
		h.Write(buf)
	}
	for _, m := range tr.Msgs {
		buf[0] = byte(m.From)
		buf[1] = byte(m.To)
		h.Write(buf)
	}
	return h.Sum64()
}

// Target selects the implementation under test: a backend of the harness
// table plus, optionally, one of that backend's seeded mutants.
type Target struct {
	Algorithm string // harness backend name ("" = harness.AlgCore)
	Mutant    string // "" = the correct protocol
}

// String renders the target for reports.
func (t Target) String() string {
	alg := t.Algorithm
	if alg == "" {
		alg = harness.AlgCore
	}
	if t.Mutant == "" {
		return alg
	}
	return alg + "+" + t.Mutant
}

// Runner executes schedules against one target and checks the traces.
// A Runner must not be copied after first use (it embeds its pools) and is
// safe for concurrent use by the fuzz campaign's workers.
type Runner struct {
	Params simtime.Params
	DT     spec.DataType
	Target Target
	// Trace selects the engine's recording level (default sim.TraceFull).
	// Throughput campaigns run at sim.TraceOps: signatures come from the
	// engine's incremental step hash, so Steps is never read. Replays that
	// feed the diagram renderer need sim.TraceFull.
	Trace sim.TraceLevel

	// kits recycles one worker's apparatus across schedules (see kit).
	kits sync.Pool

	// The target is resolved against the harness table once, on first use:
	// classification, the mutant lookup and the type check are paid per
	// Runner, never per schedule.
	resolveOnce sync.Once
	resolveErr  error
	backend     *harness.Backend
	build       func(states spec.DataType) []sim.Node
	opNames     map[string]struct{} // the data type's operations, for validation
}

// kit is what one worker reuses from schedule to schedule: an engine
// that keeps its event queue's backing array and trace-capacity hints; a
// node set built once, which Engine.Reset and each node's Init return to
// its constructed state; and a table whose compiled states the replicas
// hold and the checker searches, so each transition of the data type is
// computed once per kit. A schedule run then allocates little beyond its
// outcome.
type kit struct {
	eng     *sim.Engine
	checker *lincheck.Checker
	table   *spec.Table
	nodes   []sim.Node

	plans     [][]PlannedOp      // the running schedule's invocation plans
	cursor    []int              // per process: index of the planned op pending
	onRespond func(sim.OpRecord) // invokeNext as a func value, made once
}

// take hands out a pooled kit, or a new one. The table is trimmed here
// and only here, between runs, because a trim voids the compiled states
// the nodes and the checker hold; a checker over a reset table is rebuilt,
// and the nodes pick up fresh states at their next Init.
func (r *Runner) take() *kit {
	if k, ok := r.kits.Get().(*kit); ok {
		if k.table.Trim() {
			k.checker = lincheck.NewChecker(k.table.Compiled())
		}
		return k
	}
	k := &kit{table: spec.NewTable(r.DT), cursor: make([]int, r.Params.N)}
	k.checker = lincheck.NewChecker(k.table.Compiled())
	k.nodes = r.build(k.table.Compiled())
	k.onRespond = k.invokeNext
	return k
}

// invokeNext is the engine's OnRespond: it invokes the responding
// process's next planned operation, Gap after the response.
func (k *kit) invokeNext(rec sim.OpRecord) {
	plan := k.plans[rec.Proc]
	k.cursor[rec.Proc]++
	if i := k.cursor[rec.Proc]; i < len(plan) {
		k.eng.InvokeAt(rec.Proc, rec.RespondTime.Add(plan[i].Gap), plan[i].Op, plan[i].Arg)
	}
}

func (r *Runner) resolve() error {
	r.resolveOnce.Do(func() {
		r.opNames = make(map[string]struct{})
		for _, info := range r.DT.Ops() {
			r.opNames[info.Name] = struct{}{}
		}
		if r.backend, r.resolveErr = harness.Lookup(r.Target.Algorithm); r.resolveErr == nil {
			r.build, r.resolveErr = r.backend.Builder(r.Params, r.DT, r.Target.Mutant)
		}
	})
	return r.resolveErr
}

// hasOp reports whether the target data type declares the operation.
func (r *Runner) hasOp(op string) bool {
	_, ok := r.opNames[op]
	return ok
}

// Run drives the schedule's explicit delay assignment through the target
// and checks the trace. The schedule must be valid.
func (r *Runner) Run(s Schedule) (*Outcome, error) {
	return r.runWith(s, sim.SequenceNetwork{Delays: s.Delays, Default: r.Params.D})
}

// RunRule drives a rule-based candidate (offsets + plans + an arbitrary
// admissible network) and concretizes it: the returned schedule carries
// the explicit per-message delays the rule produced, so replaying it with
// Run reproduces the identical execution — the form the shrinker and the
// coverage mutator operate on.
func (r *Runner) RunRule(offsets []simtime.Duration, plans [][]PlannedOp, net sim.Network) (Schedule, *Outcome, error) {
	s := Schedule{Offsets: offsets, Plans: plans}
	out, err := r.runWith(s, net)
	if err != nil {
		return Schedule{}, nil, err
	}
	s.Delays = make([]simtime.Duration, len(out.Trace.Msgs))
	for i, m := range out.Trace.Msgs {
		if !m.Received() {
			// A transit-dropped message has no delay; its vector slot is
			// never consulted on replay, so pin the placeholder d.
			s.Delays[i] = r.Params.D
			continue
		}
		s.Delays[i] = m.Delay()
	}
	return s, out, nil
}

func (r *Runner) runWith(s Schedule, net sim.Network) (*Outcome, error) {
	if err := r.resolve(); err != nil {
		return nil, err
	}
	if err := s.validate(r.Params, r.DT.Name(), r.hasOp); err != nil {
		return nil, err
	}
	if s.HasFaults() && !r.backend.Faults {
		return nil, fmt.Errorf("adversary: target %s assumes reliable processes and channels; crash/drop axes require a fault-tolerant backend", r.Target)
	}
	k := r.take()
	defer r.kits.Put(k)
	return r.runOn(k, s, net)
}

// runOn drives a validated schedule through one kit.
func (r *Runner) runOn(k *kit, s Schedule, net sim.Network) (*Outcome, error) {
	var err error
	if k.eng == nil {
		k.eng, err = sim.NewEngine(r.Params, s.Offsets, net, k.nodes)
	} else {
		err = k.eng.Reset(r.Params, s.Offsets, net, k.nodes)
	}
	if err != nil {
		return nil, err
	}
	eng := k.eng
	eng.SetTraceLevel(r.Trace)
	if s.HasFaults() {
		if err := eng.SetFaults(sim.FaultPlan{Crashes: s.Crashes, Drops: s.Drops}); err != nil {
			return nil, err
		}
	}
	k.plans = s.Plans
	clear(k.cursor)
	eng.OnRespond = k.onRespond
	for proc, plan := range s.Plans {
		if len(plan) > 0 {
			eng.InvokeAt(sim.ProcID(proc), simtime.Time(plan[0].Gap), plan[0].Op, plan[0].Arg)
		}
	}
	tr := eng.Run()
	if err := tr.CheckAdmissible(); err != nil {
		return nil, fmt.Errorf("adversary: generated inadmissible run: %w", err)
	}
	// Continue the engine's incremental step hash over the message records,
	// reproducing signatureFromTrace byte for byte without needing Steps.
	sig := eng.StepSignature()
	for _, m := range tr.Msgs {
		sig = (sig ^ uint64(byte(m.From))) * fnvPrime
		sig = (sig ^ uint64(byte(m.To))) * fnvPrime
	}
	out := &Outcome{
		Trace: tr,
		Check: k.checker.CheckTrace(tr),
		// Crash-aware completeness: an op pending at a crashed invoker is
		// legitimate; at a live process it is a liveness violation. On
		// fault-free runs this is exactly CheckComplete.
		Incomplete: tr.CheckCompleteExceptCrashed() != nil,
		sig:        sig,
		hasSig:     true,
	}
	out.Fingerprints = r.backend.Fingerprints(k.nodes)
	return out, nil
}
