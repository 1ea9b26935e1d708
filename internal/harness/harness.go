// Package harness assembles complete experiments: it wires data types,
// algorithms, networks and clock-offset assignments into simulator runs,
// drives closed-loop workloads, collects per-operation latency statistics,
// and regenerates the paper's tables with measured columns.
package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/lincheck"
	"lintime/internal/obs"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// Network names accepted by Config.
const (
	NetUniform    = "uniform"     // every delay = d
	NetUniformMin = "uniform-min" // every delay = d-u
	NetRandom     = "random"      // i.i.d. uniform in [d-u, d]
	NetAdversary  = "adversarial" // extremal split by sender
)

// Offset assignment names accepted by Config.
const (
	OffZero        = "zero"
	OffSpread      = "spread"
	OffAlternating = "alternating"
	OffRandom      = "random"
)

// Config selects one experiment configuration.
type Config struct {
	Params    simtime.Params
	TypeName  string
	Algorithm string // a backend name from the table in backend.go ("" = core)
	Network   string
	Offsets   string
	Seed      int64

	// Trace selects how much of the run the engine records (zero value =
	// sim.TraceFull). Bulk pipelines that only read Ops and Msgs — the
	// measurement tables, sweeps, and load simulations — run at
	// sim.TraceOps; the execution itself is identical at every level.
	Trace sim.TraceLevel

	// Tracer, when non-nil, receives span waypoints from the engine and
	// assembles causal trees with latency attribution. The execution is
	// identical with or without it; nil (the default) keeps the engine's
	// zero-cost tracing-off path.
	Tracer *obs.Collector
}

// Workload is a closed-loop random workload: each process issues
// OpsPerProc operations drawn from the type's declared operations (or the
// weighted Mix), waiting a random gap in [0, MaxGap] between response and
// next invocation.
type Workload struct {
	OpsPerProc int
	MaxGap     simtime.Duration
	Seed       int64
	Mix        []OpPick // empty = uniform over all declared ops
}

// OpPick weights one operation in a workload mix.
type OpPick struct {
	Op     string
	Weight int
}

// LatencyStats aggregates latencies of one operation.
type LatencyStats struct {
	Count    int
	Min, Max simtime.Duration
	sum      int64
}

func (s *LatencyStats) add(d simtime.Duration) {
	if s.Count == 0 || d < s.Min {
		s.Min = d
	}
	if s.Count == 0 || d > s.Max {
		s.Max = d
	}
	s.Count++
	s.sum += int64(d)
}

// Mean returns the average latency.
func (s *LatencyStats) Mean() simtime.Duration {
	if s.Count == 0 {
		return 0
	}
	return simtime.Duration(s.sum / int64(s.Count))
}

// Result is the outcome of one experiment run.
type Result struct {
	Config       Config
	Trace        *sim.Trace
	Stats        map[string]*LatencyStats
	Fingerprints []string // per-replica object state (backends that converge only)
}

// MessageCount returns the total number of messages the algorithm sent.
func (r *Result) MessageCount() int { return len(r.Trace.Msgs) }

// MessagesPerOp returns the average number of messages per completed
// operation — the communication-cost counterpart of the latency tables:
// Algorithm 1 sends n-1 messages per mutator and none per pure accessor,
// the centralized baseline 2 per remote operation, the sequencer up to n.
func (r *Result) MessagesPerOp() float64 {
	if len(r.Trace.Ops) == 0 {
		return 0
	}
	return float64(len(r.Trace.Msgs)) / float64(len(r.Trace.Ops))
}

// Converged reports whether all replicas ended in the same state (always
// true for configurations that do not replicate).
func (r *Result) Converged() bool {
	for i := 1; i < len(r.Fingerprints); i++ {
		if r.Fingerprints[i] != r.Fingerprints[0] {
			return false
		}
	}
	return true
}

// CheckLinearizable runs the linearizability checker over the full trace.
// Exponential in the worst case; intended for small/medium runs.
func (r *Result) CheckLinearizable() bool {
	dt, err := adt.Lookup(r.Config.TypeName)
	if err != nil {
		return false
	}
	return lincheck.CheckTrace(dt, r.Trace).Linearizable
}

// OpNames returns the measured operation names, sorted.
func (r *Result) OpNames() []string {
	names := make([]string, 0, len(r.Stats))
	for name := range r.Stats {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// String renders the per-op stats.
func (r *Result) String() string {
	s := fmt.Sprintf("%s/%s on %s/%s (n=%d):\n", r.Config.Algorithm, r.Config.TypeName,
		r.Config.Network, r.Config.Offsets, r.Config.Params.N)
	for _, name := range r.OpNames() {
		st := r.Stats[name]
		s += fmt.Sprintf("  %-10s count=%-5d min=%-8v mean=%-8v max=%v\n",
			name, st.Count, st.Min, st.Mean(), st.Max)
	}
	return s
}

// classesCache avoids re-running the classifier per experiment. Guarded
// by classesMu: experiments run concurrently under the worker pool.
var (
	classesMu    sync.Mutex
	classesCache = map[string]map[string]classify.Class{}
)

// ClassesFor returns (cached) operation classes for a data type. Safe for
// concurrent use; the returned map must be treated as read-only.
//
// A keyed family is classified by its basis type: the wrapper keeps every
// operation's name and algebraic class (a lifted mutator still mutates
// only its key's substate, a lifted accessor still never mutates).
func ClassesFor(dt spec.DataType) map[string]classify.Class {
	if k, ok := dt.(*adt.Keyed); ok {
		dt = k.Basis()
	}
	classesMu.Lock()
	defer classesMu.Unlock()
	if c, ok := classesCache[dt.Name()]; ok {
		return c
	}
	c := classify.Classify(dt, classify.DefaultConfig()).Classes()
	classesCache[dt.Name()] = c
	return c
}

// buildNetwork constructs the delay model.
func buildNetwork(cfg Config) (sim.Network, error) {
	p := cfg.Params
	switch cfg.Network {
	case NetUniform, "":
		return sim.UniformNetwork{D: p.D}, nil
	case NetUniformMin:
		return sim.UniformNetwork{D: p.MinDelay()}, nil
	case NetRandom:
		return sim.NewRandomNetwork(p.D, p.U, cfg.Seed+1), nil
	case NetAdversary:
		return sim.AdversarialNetwork{D: p.D, U: p.U, N: p.N}, nil
	default:
		return nil, fmt.Errorf("harness: unknown network %q", cfg.Network)
	}
}

// buildOffsets constructs the clock-offset assignment.
func buildOffsets(cfg Config) ([]simtime.Duration, error) {
	return Offsets(cfg.Offsets, cfg.Params, cfg.Seed+2)
}

// Offsets constructs the named clock-offset assignment for p; seed feeds
// the random assignment only. The real-time serving layer shares this
// resolver with the simulator configs.
func Offsets(name string, p simtime.Params, seed int64) ([]simtime.Duration, error) {
	switch name {
	case OffZero, "":
		return sim.ZeroOffsets(p.N), nil
	case OffSpread:
		return sim.SpreadOffsets(p.N, p.Epsilon), nil
	case OffAlternating:
		return sim.AlternatingOffsets(p.N, p.Epsilon), nil
	case OffRandom:
		return sim.RandomOffsets(p.N, p.Epsilon, seed), nil
	default:
		return nil, fmt.Errorf("harness: unknown offsets %q", name)
	}
}

// enginePool recycles engines across Run calls: a reused engine keeps its
// event-queue backing array, bookkeeping maps, and trace-capacity hints,
// so the steady-state allocation of a run is the trace it returns, not
// the machinery that produced it. Traces escape via Result and are never
// recycled (sim.Engine.Reset allocates a fresh one), so pooling is
// invisible to callers.
var enginePool = sync.Pool{}

// runsTotal counts completed experiment runs on the process-wide
// registry; a scraper differentiates it into runs/sec.
var runsTotal = obs.Default.Counter("harness_runs_total")

// Run executes one experiment and returns its result.
func Run(cfg Config, wl Workload) (*Result, error) {
	dt, err := adt.Lookup(cfg.TypeName)
	if err != nil {
		return nil, err
	}
	backend, err := Lookup(cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	build, err := backend.Builder(cfg.Params, dt, "")
	if err != nil {
		return nil, err
	}
	nodes := build(dt)
	net, err := buildNetwork(cfg)
	if err != nil {
		return nil, err
	}
	offsets, err := buildOffsets(cfg)
	if err != nil {
		return nil, err
	}
	var eng *sim.Engine
	if pooled, ok := enginePool.Get().(*sim.Engine); ok {
		eng = pooled
		if err := eng.Reset(cfg.Params, offsets, net, nodes); err != nil {
			return nil, err
		}
	} else {
		eng, err = sim.NewEngine(cfg.Params, offsets, net, nodes)
		if err != nil {
			return nil, err
		}
	}
	defer enginePool.Put(eng)
	eng.SetTraceLevel(cfg.Trace)
	eng.SetTracer(cfg.Tracer)

	rng := rand.New(rand.NewSource(wl.Seed))
	picks, err := ExpandMixOps(dt, wl.Mix)
	if err != nil {
		return nil, err
	}
	remaining := make([]int, cfg.Params.N)
	for i := range remaining {
		remaining[i] = wl.OpsPerProc
	}
	invoke := func(proc sim.ProcID, at simtime.Time) {
		op := picks[rng.Intn(len(picks))]
		eng.InvokeAt(proc, at, op.Name, op.Args[rng.Intn(len(op.Args))])
	}
	eng.OnRespond = func(rec sim.OpRecord) {
		remaining[rec.Proc]--
		if remaining[rec.Proc] > 0 {
			gap := simtime.Duration(0)
			if wl.MaxGap > 0 {
				gap = simtime.Duration(rng.Int63n(int64(wl.MaxGap) + 1))
			}
			invoke(rec.Proc, rec.RespondTime.Add(gap))
		}
	}
	for i := 0; i < cfg.Params.N; i++ {
		if remaining[i] > 0 {
			invoke(sim.ProcID(i), simtime.Time(rng.Int63n(int64(cfg.Params.D))))
		}
	}
	tr := eng.Run()
	if err := tr.CheckComplete(); err != nil {
		return nil, err
	}

	res := &Result{Config: cfg, Trace: tr, Stats: map[string]*LatencyStats{}}
	for _, op := range tr.Ops {
		st, ok := res.Stats[op.Op]
		if !ok {
			st = &LatencyStats{}
			res.Stats[op.Op] = st
		}
		st.add(op.Latency())
	}
	res.Fingerprints = backend.Fingerprints(nodes)
	runsTotal.Inc()
	return res, nil
}

// ExpandMix resolves a workload mix into a weighted pick list: each
// operation appears Weight times, so a uniform draw over the list realizes
// the mix. An empty mix expands to one entry per declared operation.
func ExpandMix(dt spec.DataType, mix []OpPick) ([]string, error) {
	picks, err := ExpandMixOps(dt, mix)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(picks))
	for i, op := range picks {
		names[i] = op.Name
	}
	return names, nil
}

// ExpandMixOps is ExpandMix keeping each pick's declared argument sample,
// so a load generator draws an operation and then its argument without
// looking the operation up again. The load generator in internal/serve
// shares this resolver with Run.
func ExpandMixOps(dt spec.DataType, mix []OpPick) ([]spec.OpInfo, error) {
	if len(mix) == 0 {
		return dt.Ops(), nil
	}
	var picks []spec.OpInfo
	for _, m := range mix {
		info, ok := spec.FindOp(dt, m.Op)
		if !ok {
			return nil, fmt.Errorf("harness: type %s has no operation %q", dt.Name(), m.Op)
		}
		if m.Weight <= 0 {
			return nil, fmt.Errorf("harness: weight for %q must be positive", m.Op)
		}
		for i := 0; i < m.Weight; i++ {
			picks = append(picks, info)
		}
	}
	return picks, nil
}
