package adversary

import (
	"math/rand"
	"strconv"
	"sync"

	"lintime/internal/classify"
	"lintime/internal/harness"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// Strategy names.
const (
	StratBoundary = "boundary"
	StratRandom   = "random"
	StratCoverage = "coverage"
	// StratFaultCorner enumerates deterministic crash/drop corner
	// schedules derived from the quorum protocol's phase structure. It
	// applies only to crash-tolerant targets; against reliable-channel
	// targets it is skipped (or rejected when requested explicitly).
	StratFaultCorner = "faultcorner"
)

// Strategies lists the generation strategies in fixed order.
func Strategies() []string {
	return []string{StratBoundary, StratRandom, StratCoverage, StratFaultCorner}
}

// candidate is one generated adversary: either rule-based (net != nil;
// concretized by the runner) or an explicit schedule (coverage mutants).
type candidate struct {
	offsets []simtime.Duration
	plans   [][]PlannedOp
	net     sim.Network
	sched   Schedule // used when net == nil
}

// funcNetwork adapts a function to sim.Network.
type funcNetwork func(from, to sim.ProcID, at simtime.Time, msgIndex int64) simtime.Duration

// Delay implements sim.Network.
func (f funcNetwork) Delay(from, to sim.ProcID, at simtime.Time, msgIndex int64) simtime.Duration {
	return f(from, to, at, msgIndex)
}

// opset holds representative operations of each Algorithm 1 class for a
// data type, with graceful fallbacks for types missing a class.
type opset struct {
	mutators  []spec.OpInfo // pure mutators (fallback: mixed)
	accessors []spec.OpInfo // pure accessors (fallback: mixed)
	mixed     []spec.OpInfo // mixed (fallback: all ops)
	all       []spec.OpInfo
}

// opsFor classifies dt's operations into the sets the plan templates
// draw from.
func opsFor(dt spec.DataType) opset {
	classes := harness.ClassesFor(dt)
	var s opset
	for _, info := range dt.Ops() {
		s.all = append(s.all, info)
		switch classes[info.Name] {
		case classify.PureMutator:
			s.mutators = append(s.mutators, info)
		case classify.PureAccessor:
			s.accessors = append(s.accessors, info)
		default:
			s.mixed = append(s.mixed, info)
		}
	}
	if len(s.mixed) == 0 {
		s.mixed = s.all
	}
	if len(s.mutators) == 0 {
		s.mutators = s.mixed
	}
	if len(s.accessors) == 0 {
		s.accessors = s.mixed
	}
	return s
}

// argAt picks a deterministic argument sample, spreading distinct values
// across processes so violations are observable.
func argAt(info spec.OpInfo, i int) spec.Value {
	return info.Args[i%len(info.Args)]
}

// planned builds a PlannedOp from an op sample.
func planned(info spec.OpInfo, i int, gap simtime.Duration) PlannedOp {
	return PlannedOp{Op: info.Name, Arg: argAt(info, i), Gap: gap}
}

// addProbes appends post-quiescence accessor probes to the first two
// processes. The probes fire long after all other activity has settled,
// so they read each replica's committed state: a diverged pair of
// replicas turns into two sequential accessors returning inconsistent
// values — a black-box linearizability violation rather than an internal
// fingerprint mismatch.
func addProbes(plans [][]PlannedOp, ops opset, p simtime.Params) [][]PlannedOp {
	probe := ops.accessors[0]
	plans[0] = append(plans[0], planned(probe, 0, 5*p.D))
	if p.N > 1 {
		plans[1] = append(plans[1], planned(probe, 0, 8*p.D))
	}
	return plans
}

// emptyPlans allocates one empty plan per process.
func emptyPlans(n int) [][]PlannedOp { return make([][]PlannedOp, n) }

// --- offset patterns ---

var offsetPatterns = []struct {
	name  string
	build func(n int, eps simtime.Duration) []simtime.Duration
}{
	{"zero", func(n int, eps simtime.Duration) []simtime.Duration { return sim.ZeroOffsets(n) }},
	{"spread", sim.SpreadOffsets},
	{"alternating", sim.AlternatingOffsets},
	{"first-ahead", func(n int, eps simtime.Duration) []simtime.Duration {
		out := make([]simtime.Duration, n)
		out[0] = eps
		return out
	}},
	{"last-ahead", func(n int, eps simtime.Duration) []simtime.Duration {
		out := make([]simtime.Duration, n)
		out[n-1] = eps
		return out
	}},
	{"reverse-spread", func(n int, eps simtime.Duration) []simtime.Duration {
		out := sim.SpreadOffsets(n, eps)
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		return out
	}},
}

// --- delay rules ---

// delayRules are extremal per-message delay assignments; every rule keeps
// delays in {d-u, midpoint, d}.
var delayRules = []struct {
	name  string
	build func(p simtime.Params) sim.Network
}{
	{"all-max", func(p simtime.Params) sim.Network { return sim.UniformNetwork{D: p.D} }},
	{"all-min", func(p simtime.Params) sim.Network { return sim.UniformNetwork{D: p.MinDelay()} }},
	{"low-senders-slow", func(p simtime.Params) sim.Network {
		return funcNetwork(func(from, _ sim.ProcID, _ simtime.Time, _ int64) simtime.Duration {
			if int(from) < p.N/2 {
				return p.D
			}
			return p.MinDelay()
		})
	}},
	{"low-senders-fast", func(p simtime.Params) sim.Network {
		return funcNetwork(func(from, _ sim.ProcID, _ simtime.Time, _ int64) simtime.Duration {
			if int(from) < p.N/2 {
				return p.MinDelay()
			}
			return p.D
		})
	}},
	{"downhill-slow", func(p simtime.Params) sim.Network {
		return funcNetwork(func(from, to sim.ProcID, _ simtime.Time, _ int64) simtime.Duration {
			if from > to {
				return p.D
			}
			return p.MinDelay()
		})
	}},
	{"parity", func(p simtime.Params) sim.Network {
		return funcNetwork(func(_, _ sim.ProcID, _ simtime.Time, idx int64) simtime.Duration {
			if idx%2 == 0 {
				return p.D
			}
			return p.MinDelay()
		})
	}},
	{"p1-slow", func(p simtime.Params) sim.Network {
		return funcNetwork(func(from, _ sim.ProcID, _ simtime.Time, _ int64) simtime.Duration {
			if from == 1 {
				return p.D
			}
			return p.MinDelay()
		})
	}},
}

// --- plan templates ---

// planTemplates build invocation plans around a data type's op classes.
type planTemplate struct {
	name  string
	build func(p simtime.Params, ops opset) [][]PlannedOp
}

func planTemplates() []planTemplate {
	return []planTemplate{
		{"mutator-storm", func(p simtime.Params, ops opset) [][]PlannedOp {
			plans := emptyPlans(p.N)
			for i := 0; i < p.N; i++ {
				plans[i] = append(plans[i], planned(ops.mutators[i%len(ops.mutators)], i, 0))
			}
			return plans
		}},
		{"accessor-ahead", func(p simtime.Params, ops opset) [][]PlannedOp {
			// The Finding 1 shape: an accessor on a fast clock invoked
			// inside the window (X-ε, X) while every other process mutates
			// at time 0 — its backdated timestamp dominates the mutators'.
			plans := emptyPlans(p.N)
			start := simtime.Max(0, p.X-p.Epsilon) + simtime.Min(p.X, p.Epsilon)/2
			plans[0] = append(plans[0], planned(ops.accessors[0], 0, start))
			for i := 1; i < p.N; i++ {
				plans[i] = append(plans[i], planned(ops.mutators[i%len(ops.mutators)], i, 0))
			}
			return plans
		}},
		{"staggered-mutators", func(p simtime.Params, ops opset) [][]PlannedOp {
			plans := emptyPlans(p.N)
			step := p.Epsilon / simtime.Duration(max(1, p.N-1))
			for i := 0; i < p.N; i++ {
				plans[i] = append(plans[i], planned(ops.mutators[i%len(ops.mutators)], i, simtime.Duration(i)*step))
			}
			return plans
		}},
		{"mutator-then-mixed", func(p simtime.Params, ops opset) [][]PlannedOp {
			// A mixed op invoked just after a remote mutator completed:
			// the shape that defeats a missing self-delay.
			plans := emptyPlans(p.N)
			plans[0] = append(plans[0], planned(ops.mutators[0], 1, 0))
			if p.N > 1 {
				plans[1] = append(plans[1], planned(ops.mixed[0], 1, p.X+p.Epsilon+1))
			}
			return plans
		}},
		{"pairs", func(p simtime.Params, ops opset) [][]PlannedOp {
			plans := emptyPlans(p.N)
			for i := 0; i < p.N; i++ {
				plans[i] = append(plans[i],
					planned(ops.mutators[i%len(ops.mutators)], i, 0),
					planned(ops.accessors[i%len(ops.accessors)], i, 0))
			}
			return plans
		}},
		{"lone-mutator", func(p simtime.Params, ops opset) [][]PlannedOp {
			plans := emptyPlans(p.N)
			for i := 0; i < p.N; i++ {
				if i == 1 || p.N == 1 {
					plans[i] = append(plans[i], planned(ops.mutators[0], i, 0))
				} else {
					plans[i] = append(plans[i], planned(ops.accessors[i%len(ops.accessors)], i, 0))
				}
			}
			return plans
		}},
	}
}

// --- curated corners ---

// curatedCorners are the handcrafted extremal schedules generalizing the
// repository's failure-injection ablations to arbitrary parameters. They
// come first in the boundary enumeration so that every seeded mutant dies
// within a handful of schedules even at tiny budgets; the rest of the
// boundary space then sweeps the full pattern product.
func curatedCorners(p simtime.Params, ops opset) []candidate {
	if p.N < 3 {
		return nil
	}
	var out []candidate

	// 1. Finding 1 corner: accessor on the fast clock, lowest-id mutator's
	// announcements at maximum delay, everyone else's at minimum. With the
	// paper's d-X wait the accessor observes a non-prefix of the timestamp
	// order; post-quiescence probes pin the committed order.
	{
		plans := emptyPlans(p.N)
		start := simtime.Max(0, p.X-p.Epsilon) + simtime.Min(p.X, p.Epsilon)/2
		plans[0] = append(plans[0], planned(ops.accessors[0], 0, start))
		for i := 1; i < p.N; i++ {
			plans[i] = append(plans[i], planned(ops.mutators[i%len(ops.mutators)], i, 0))
		}
		out = append(out, candidate{
			offsets: offsetPatterns[3].build(p.N, p.Epsilon), // first-ahead
			plans:   addProbes(plans, ops, p),
			net:     delayRules[6].build(p), // p1-slow
		})
	}

	// 2. Execute-wait corner: two near-simultaneous mutators whose
	// real-time send order is the reverse of their timestamp order (the
	// later sender's clock runs behind); the earlier send travels fast,
	// the later one slow. A stabilization wait of u alone commits them in
	// arrival order at third parties.
	{
		plans := emptyPlans(p.N)
		plans[0] = append(plans[0], planned(ops.mutators[0], 0, 0))
		plans[1] = append(plans[1], planned(ops.mutators[1%len(ops.mutators)], 1, p.Epsilon/2))
		out = append(out, candidate{
			offsets: offsetPatterns[3].build(p.N, p.Epsilon), // first-ahead
			plans:   addProbes(plans, ops, p),
			net: funcNetwork(func(from, _ sim.ProcID, _ simtime.Time, _ int64) simtime.Duration {
				if from == 1 {
					return p.D
				}
				return p.MinDelay()
			}),
		})
	}

	// 3. Self-delay corner: a mixed op concurrent with a remote mutator
	// whose announcement travels at the maximum delay. Without the d-u
	// self-delay the mixed op executes before the (smaller-timestamped)
	// mutator arrives, and its own announcement reaches the mutator's
	// replica in time — so the two replicas commit in opposite orders.
	{
		plans := emptyPlans(p.N)
		start := simtime.Max(1, (p.D-p.U-p.Epsilon)/2)
		plans[0] = append(plans[0], planned(ops.mixed[0], 0, start))
		plans[1] = append(plans[1], planned(ops.mutators[0], 1, 0))
		out = append(out, candidate{
			offsets: sim.ZeroOffsets(p.N),
			plans:   addProbes(plans, ops, p),
			net: funcNetwork(func(from, _ sim.ProcID, _ simtime.Time, _ int64) simtime.Duration {
				if from == 1 {
					return p.D
				}
				return p.MinDelay()
			}),
		})
	}

	// 4. Mutator-response corner: a mutator on the fast clock followed
	// immediately by a mixed op on a slow clock. If the mutator responds
	// before X+ε has passed, the mixed op's timestamp can undercut the
	// completed mutator's, and the mixed op misses it everywhere.
	{
		plans := emptyPlans(p.N)
		plans[0] = append(plans[0], planned(ops.mutators[0], 0, 0))
		plans[1] = append(plans[1], planned(ops.mixed[0], 1, 1))
		out = append(out, candidate{
			offsets: offsetPatterns[3].build(p.N, p.Epsilon), // first-ahead
			plans:   addProbes(plans, ops, p),
			net:     sim.UniformNetwork{D: p.D},
		})
	}

	// 5. General stress corner: every process mutates then immediately
	// issues a mixed op, on alternating extremal clocks and a sender-split
	// extremal network.
	{
		plans := emptyPlans(p.N)
		for i := 0; i < p.N; i++ {
			plans[i] = append(plans[i],
				planned(ops.mutators[i%len(ops.mutators)], i, 0),
				planned(ops.mixed[i%len(ops.mixed)], i, 0))
		}
		out = append(out, candidate{
			offsets: sim.AlternatingOffsets(p.N, p.Epsilon),
			plans:   addProbes(plans, ops, p),
			net:     delayRules[2].build(p), // low-senders-slow
		})
	}
	return out
}

// boundaryCandidate returns the i-th boundary-strategy candidate: first
// the curated corners, then the full (template × delay rule × offset
// pattern) product, then the product again with derived-seed gap jitter.
func boundaryCandidate(p simtime.Params, ops opset, seed int64, i int) candidate {
	return newBoundarySource(p, ops).candidateAt(p, ops, seed, i)
}

// boundarySource caches the curated corner list and the plan templates
// for one campaign. boundaryCandidate is on the per-schedule hot path,
// and rebuilding the full corner list just to index one element dominated
// the strategy's allocations. Candidates handed out are safe to share:
// every downstream mutation path (mutateSchedule, Shrink) clones first.
type boundarySource struct {
	curated   []candidate
	templates []planTemplate
}

func newBoundarySource(p simtime.Params, ops opset) *boundarySource {
	return &boundarySource{curated: curatedCorners(p, ops), templates: planTemplates()}
}

func (b *boundarySource) candidateAt(p simtime.Params, ops opset, seed int64, i int) candidate {
	curated := b.curated
	if i < len(curated) {
		return curated[i]
	}
	j := i - len(curated)
	templates := b.templates
	nT, nD, nO := len(templates), len(delayRules), len(offsetPatterns)
	product := nT * nD * nO
	k := j % product
	tIdx, k := k%nT, k/nT
	dIdx, k := k%nD, k/nD
	oIdx := k % nO
	plans := addProbes(templates[tIdx].build(p, ops), ops, p)
	cand := candidate{
		offsets: offsetPatterns[oIdx].build(p.N, p.Epsilon),
		plans:   plans,
		net:     delayRules[dIdx].build(p),
	}
	if j >= product {
		// Wrapped around: jitter the invocation times to visit nearby
		// corners of the same pattern combination.
		rng := seededRand(labelSeed(seed, "boundary", i))
		defer rngPool.Put(rng)
		for proc := range cand.plans {
			for oi := range cand.plans[proc] {
				if gap := &cand.plans[proc][oi].Gap; *gap < 4*p.D { // leave probes alone
					*gap += simtime.Duration(rng.Int63n(int64(simtime.Max(1, p.Epsilon) + 1)))
				}
			}
		}
	}
	return cand
}

// faultCorners enumerates deterministic crash/drop corner schedules
// derived from the quorum protocol's phase structure. Random fault
// sampling reliably finds single-axis bugs, but the classic new-old
// inversion needs a conjunction — the writer's entire propagate phase
// lost in transit plus one precisely slow acknowledgment — that random
// search essentially never hits. Each corner is an explicit Schedule
// (net == nil), so the shrinker and coverage mutator apply unchanged.
//
// Ordinal bookkeeping: a broadcast sends n-1 messages in process order
// (skipping self), so with a lone writer starting at time 0 and all
// earlier delays at the minimum d-u, its query requests take ordinals
// [0, n-1), the acknowledgments [n-1, 2(n-1)), and the propagate-phase
// updates [2(n-1), 3(n-1)) — the window the inversion corners drop.
// Later ordinals shift with scheduling details, so the slow-message
// corners sweep a window of ordinals instead of pinning one.
func faultCorners(p simtime.Params, ops opset) []candidate {
	if p.N < 2 {
		return nil
	}
	du := p.MinDelay()
	phase := simtime.Duration(2) * du // one quorum round trip at minimum delay
	nm := p.N - 1                     // messages per broadcast
	minVec := func(w int) []simtime.Duration {
		out := make([]simtime.Duration, w)
		for i := range out {
			out[i] = du
		}
		return out
	}
	noCrash := func() []simtime.Time {
		out := make([]simtime.Time, p.N)
		for i := range out {
			out[i] = simtime.Infinity
		}
		return out
	}
	var out []candidate
	add := func(s Schedule) { out = append(out, candidate{sched: s}) }

	// 1. Equal-timestamp collision: two writes whose query phases fully
	// overlap propose the same timestamp; the proc-id tie-break must
	// commit one order everywhere. Post-quiescence probes on p0 and p1
	// read the committed states sequentially, so a tie-break that keeps
	// the incumbent turns into two reads returning different values.
	{
		plans := emptyPlans(p.N)
		plans[0] = append(plans[0], planned(ops.mutators[0], 1, 0))
		plans[1] = append(plans[1], planned(ops.mutators[0], 2, 0))
		add(Schedule{Offsets: make([]simtime.Duration, p.N), Delays: minVec(4 * nm),
			Plans: addProbes(plans, ops, p)})
	}

	if p.N >= 3 {
		// 2. New-old inversion: the writer's propagate phase is lost in
		// transit, so only the writer's own replica holds the new tag.
		// Reader 1 reaches a quorum containing the writer and returns new;
		// reader 2, invoked strictly after reader 1 responded, reaches the
		// complementary quorum when the writer's acknowledgment travels at
		// the maximum delay — and returns old. Which ordinal carries that
		// acknowledgment depends on ack interleaving, so sweep a window.
		r1 := phase + 1
		r2 := simtime.Duration(2)*phase + 2
		drops := make([]int64, 0, nm)
		for i := 2 * nm; i < 3*nm; i++ {
			drops = append(drops, int64(i))
		}
		for k := 3 * nm; k < 7*nm+4; k++ {
			plans := emptyPlans(p.N)
			plans[0] = append(plans[0], planned(ops.mutators[0], 1, 0))
			plans[1] = append(plans[1], planned(ops.accessors[0], 0, r1))
			plans[2] = append(plans[2], planned(ops.accessors[0], 0, r2))
			delays := minVec(8*nm + 8)
			delays[k] = p.D
			add(Schedule{Offsets: make([]simtime.Duration, p.N), Delays: delays,
				Plans: addProbes(plans, ops, p), Drops: append([]int64(nil), drops...)})
		}

		// 3. Stale-read window: the propagate update to the last process
		// travels at the maximum delay while the write completes through
		// the rest of the quorum. A read at the lagging replica invoked
		// after the write responded must still see the new value — any
		// read quorum too small to intersect the write quorum returns the
		// stale local copy.
		writeDone := simtime.Duration(2) * phase
		arrival := phase + p.D
		if writeDone < arrival {
			plans := emptyPlans(p.N)
			plans[0] = append(plans[0], planned(ops.mutators[0], 1, 0))
			plans[p.N-1] = append(plans[p.N-1], planned(ops.accessors[0], 0,
				writeDone+(arrival-writeDone)/2))
			delays := minVec(4 * nm)
			delays[3*nm-1] = p.D // propagate update to the last process
			add(Schedule{Offsets: make([]simtime.Duration, p.N), Delays: delays,
				Plans: addProbes(plans, ops, p)})
		}
	}

	// 4. Crash corners: a minority of processes crash at each phase
	// boundary of a write-then-read run. The correct protocol stays live
	// and linearizable through every placement; implementations that
	// miscount a crashed process toward a quorum die here.
	if maxCrashes := (p.N - 1) / 2; maxCrashes > 0 {
		moments := []simtime.Time{0, simtime.Time(du), simtime.Time(phase),
			simtime.Time(p.D), simtime.Time(3 * p.D)}
		for c := 1; c <= maxCrashes; c++ {
			for _, m := range moments {
				plans := emptyPlans(p.N)
				plans[0] = append(plans[0], planned(ops.mutators[0], 1, 0))
				plans[1] = append(plans[1], planned(ops.accessors[0], 0, phase+1))
				crashes := noCrash()
				for i := 0; i < c; i++ {
					crashes[p.N-1-i] = m // crash the idle tail processes
				}
				add(Schedule{Offsets: make([]simtime.Duration, p.N), Delays: minVec(4 * nm),
					Plans: addProbes(plans, ops, p), Crashes: crashes})
			}
		}
		// One corner crashing a reader mid-operation: its pending op must
		// be excused by crash-aware completeness, not reported stuck.
		plans := emptyPlans(p.N)
		plans[0] = append(plans[0], planned(ops.mutators[0], 1, 0))
		plans[1] = append(plans[1], planned(ops.accessors[0], 0, phase+1))
		crashes := noCrash()
		crashes[1] = simtime.Time(phase + 2)
		add(Schedule{Offsets: make([]simtime.Duration, p.N), Delays: minVec(4 * nm),
			Plans: addProbes(plans, ops, p), Crashes: crashes})
	}
	return out
}

// randomFaults draws a crash/drop assignment for a crash-tolerant
// target: with probability 1/2 a minority of processes crash at times
// biased toward phase boundaries, and with probability 1/3 a few early
// send ordinals are lost in transit.
func randomFaults(s *Schedule, p simtime.Params, rng *rand.Rand) {
	if maxCrashes := (p.N - 1) / 2; maxCrashes > 0 && rng.Intn(2) == 0 {
		crashes := make([]simtime.Time, p.N)
		for i := range crashes {
			crashes[i] = simtime.Infinity
		}
		moments := []simtime.Time{0, 0, simtime.Time(p.MinDelay()), simtime.Time(p.D),
			simtime.Time(2 * p.D), simtime.Time(rng.Int63n(int64(4*p.D) + 1))}
		for _, proc := range rng.Perm(p.N)[:1+rng.Intn(maxCrashes)] {
			crashes[proc] = moments[rng.Intn(len(moments))]
		}
		s.Crashes = crashes
	}
	if rng.Intn(3) == 0 {
		count := 1 + rng.Intn(3)
		for i := 0; i < count; i++ {
			s.Drops = append(s.Drops, rng.Int63n(32))
		}
	}
}

// rngPool recycles candidate generators. A math/rand source is a 4.9 kB
// table, and every candidate draws from its own seed.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// seededRand returns a pooled generator reseeded to seed; hand it back
// with rngPool.Put once no draw is left. Reseeding restarts the stream
// exactly where rand.New(rand.NewSource(seed)) starts
// (TestPooledRandMatchesNewSource), so candidates are what fresh
// generators would make.
func seededRand(seed int64) *rand.Rand {
	rng := rngPool.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// labelSeed is harness.DeriveSeed(seed, "adversary/<stream>/<i>"): the
// same label bytes, put together on the stack instead of formatted, since
// every candidate derives one.
func labelSeed(seed int64, stream string, i int) int64 {
	var buf [64]byte
	label := append(append(append(buf[:0], "adversary/"...), stream...), '/')
	return harness.DeriveSeed(seed, strconv.AppendInt(label, int64(i), 10))
}

// randomCandidate returns the i-th biased-random candidate: offsets and
// delays biased toward the admissible extremes, short plans with gaps
// clustered around the algorithm's critical constants.
func randomCandidate(p simtime.Params, ops opset, seed int64, stream string, i int, faults bool) candidate {
	rng := seededRand(labelSeed(seed, stream, i))
	defer rngPool.Put(rng)
	offsets := make([]simtime.Duration, p.N)
	for pi := range offsets {
		switch rng.Intn(10) {
		case 0, 1, 2:
			offsets[pi] = 0
		case 3, 4, 5:
			offsets[pi] = p.Epsilon
		default:
			if p.Epsilon > 0 {
				offsets[pi] = simtime.Duration(rng.Int63n(int64(p.Epsilon) + 1))
			}
		}
	}
	delays := make([]simtime.Duration, 96)
	for di := range delays {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			delays[di] = p.D
		case 4, 5, 6:
			delays[di] = p.MinDelay()
		default:
			delays[di] = p.MinDelay() + simtime.Duration(rng.Int63n(int64(p.U)+1))
		}
	}
	gapChoices := []simtime.Duration{0, 0, 1, p.Epsilon / 2, p.Epsilon, p.X, p.U + p.Epsilon}
	plans := emptyPlans(p.N)
	for pi := 0; pi < p.N; pi++ {
		count := rng.Intn(3)
		if pi == 1 {
			count++ // guarantee at least one busy process
		}
		for oi := 0; oi < count; oi++ {
			var info spec.OpInfo
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				info = ops.mutators[rng.Intn(len(ops.mutators))]
			case 4, 5:
				info = ops.accessors[rng.Intn(len(ops.accessors))]
			case 6, 7:
				info = ops.mixed[rng.Intn(len(ops.mixed))]
			default:
				info = ops.all[rng.Intn(len(ops.all))]
			}
			gap := gapChoices[rng.Intn(len(gapChoices))]
			if oi == 0 && rng.Intn(2) == 0 {
				gap = simtime.Duration(rng.Int63n(int64(p.D)))
			}
			plans[pi] = append(plans[pi], planned(info, rng.Intn(4), gap))
		}
	}
	sched := Schedule{Offsets: offsets, Delays: delays, Plans: addProbes(plans, ops, p)}
	if faults {
		randomFaults(&sched, p, rng)
	}
	return candidate{sched: sched}
}

// mutateSchedule derives a coverage-strategy candidate by applying a few
// random admissible edits to a parent schedule from the novelty pool.
// Against crash-tolerant targets (faults) the edit space additionally
// toggles crash times and message drops.
func mutateSchedule(parent Schedule, p simtime.Params, ops opset, rng *rand.Rand, faults bool) Schedule {
	s := parent.Clone()
	kinds := 6
	if faults {
		kinds = 8
	}
	edits := 1 + rng.Intn(3)
	for e := 0; e < edits; e++ {
		switch rng.Intn(kinds) {
		case 0: // flip a delay to an extreme
			if len(s.Delays) > 0 {
				choices := []simtime.Duration{p.D, p.MinDelay(), p.MinDelay() + p.U/2}
				s.Delays[rng.Intn(len(s.Delays))] = choices[rng.Intn(len(choices))]
			}
		case 1: // flip an offset to an extreme
			s.Offsets[rng.Intn(len(s.Offsets))] = []simtime.Duration{0, p.Epsilon}[rng.Intn(2)]
		case 2: // tweak a gap
			if proc, oi, ok := pickOp(s, rng); ok {
				s.Plans[proc][oi].Gap = []simtime.Duration{0, 1, p.Epsilon / 2, p.Epsilon, p.X}[rng.Intn(5)]
			}
		case 3: // swap an op for another of a random class
			if proc, oi, ok := pickOp(s, rng); ok {
				pools := [][]spec.OpInfo{ops.mutators, ops.accessors, ops.mixed}
				pool := pools[rng.Intn(len(pools))]
				info := pool[rng.Intn(len(pool))]
				s.Plans[proc][oi] = planned(info, rng.Intn(4), s.Plans[proc][oi].Gap)
			}
		case 4: // insert an op at a random position
			proc := rng.Intn(len(s.Plans))
			info := ops.all[rng.Intn(len(ops.all))]
			op := planned(info, rng.Intn(4), []simtime.Duration{0, 1, p.Epsilon}[rng.Intn(3)])
			pos := 0
			if len(s.Plans[proc]) > 0 {
				pos = rng.Intn(len(s.Plans[proc]) + 1)
			}
			plan := append([]PlannedOp(nil), s.Plans[proc][:pos]...)
			plan = append(plan, op)
			plan = append(plan, s.Plans[proc][pos:]...)
			s.Plans[proc] = plan
		case 5: // delete an op
			if proc, oi, ok := pickOp(s, rng); ok && s.NumOps() > 1 {
				s.Plans[proc] = append(s.Plans[proc][:oi:oi], s.Plans[proc][oi+1:]...)
			}
		case 6: // toggle a crash (faults only)
			if maxCrashes := (p.N - 1) / 2; maxCrashes > 0 {
				if len(s.Crashes) == 0 {
					s.Crashes = make([]simtime.Time, len(s.Plans))
					for i := range s.Crashes {
						s.Crashes[i] = simtime.Infinity
					}
				}
				proc := rng.Intn(len(s.Crashes))
				if s.Crashes[proc] == simtime.Infinity && s.NumCrashed() < maxCrashes {
					moments := []simtime.Time{0, simtime.Time(p.MinDelay()),
						simtime.Time(p.D), simtime.Time(2 * p.D)}
					s.Crashes[proc] = moments[rng.Intn(len(moments))]
				} else {
					s.Crashes[proc] = simtime.Infinity
				}
				if s.NumCrashed() == 0 {
					s.Crashes = nil
				}
			}
		case 7: // add or remove a message drop (faults only)
			if len(s.Drops) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(s.Drops))
				s.Drops = append(s.Drops[:i:i], s.Drops[i+1:]...)
			} else {
				s.Drops = append(s.Drops, rng.Int63n(32))
			}
		}
	}
	return s
}

// pickOp selects a uniformly random planned op, if any.
func pickOp(s Schedule, rng *rand.Rand) (proc, idx int, ok bool) {
	total := s.NumOps()
	if total == 0 {
		return 0, 0, false
	}
	k := rng.Intn(total)
	for proc, plan := range s.Plans {
		if k < len(plan) {
			return proc, k, true
		}
		k -= len(plan)
	}
	return 0, 0, false
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
