package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/harness"
	"lintime/internal/rtnet"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// Caller is a front end the load generator drives: the in-process
// *ShardSet or the TCP *Client. A keyed run (LoadConfig.Keys non-empty)
// goes through CallKey, an unkeyed one through Call.
type Caller interface {
	Call(op string, arg any) (rtnet.Response, error)
	CallKey(key, op string, arg any) (rtnet.Response, error)
}

// LoadConfig describes one closed-loop load generation run: Clients
// independent workers, each issuing one operation at a time (invoke, wait
// for the response, invoke again) drawn from Mix by a per-client rng
// seeded via harness.DeriveSeed — so a run's operation sequence per
// client depends only on (Seed, client index), never on scheduling.
type LoadConfig struct {
	Clients      int
	Duration     time.Duration // run length; ignored when OpsPerClient > 0
	OpsPerClient int           // fixed op count per client (0 = run until Duration)
	Mix          []harness.OpPick
	Seed         int64
	// Stop, when non-nil and closed, ends the run early: each client
	// finishes its in-flight operation and submits no more. The summary
	// then covers the operations completed so far — the graceful
	// shortened-run path `lintime load` takes on SIGINT/SIGTERM.
	Stop <-chan struct{}

	// Pipeline is how many operations each client keeps in flight
	// (default 1 — the classic closed loop). With k > 1 a client runs k
	// workers sharing one op budget and one rng, so up to Clients×k
	// operations are in flight at once while the issued operation multiset
	// stays a deterministic function of (Seed, client index).
	Pipeline int

	// Keys, when non-empty, switches the run to keyed (multi-object)
	// mode: each operation draws an object key and goes through the
	// target's CallKey.
	Keys []string
	// Zipf skews the key draw: s > 1 selects keys with Zipfian
	// popularity (rank-1 hottest), concentrating load on the hot key's
	// home shard. Values ≤ 1 mean uniform (the Zipf law requires s > 1).
	Zipf float64
	// ShardParams, when non-empty, attributes each keyed operation to
	// ShardFor(key, len(ShardParams)) and adds per-shard class reports
	// (each against its own shard's X) to the summary.
	ShardParams []simtime.Params
	// Backend names the protocol the target runs (empty = Algorithm 1);
	// the summary judges each class against that backend's latency bound.
	Backend string
}

// FormulaTicks returns Algorithm 1's worst-case latency for an operation
// class, in virtual ticks: the core backend's declared bound.
func FormulaTicks(p simtime.Params, class classify.Class) simtime.Duration {
	return harness.CoreBound(p, class)
}

// QuorumFormulaTicks returns the ABD quorum register's worst-case
// latency, 4d whatever the class: the quorum backend's declared bound.
func QuorumFormulaTicks(p simtime.Params) simtime.Duration {
	return harness.QuorumBound(p, classify.Mixed)
}

// JitterBudget converts the scheduling-jitter allowance (a wall-clock
// constant: timer wheel granularity plus goroutine wakeup latency on a
// loaded machine) into virtual ticks at the given tick duration. A zero
// or negative tick means virtual time (no jitter): the budget is 0 and
// observed latencies must hit the formulas exactly.
func JitterBudget(tick time.Duration) simtime.Duration {
	if tick <= 0 {
		return 0
	}
	const allowance = 50 * time.Millisecond
	b := simtime.Duration(int64(allowance) / int64(tick))
	if b < 8 {
		b = 8
	}
	return b
}

// SummaryConfig echoes the resolved run configuration into the summary.
type SummaryConfig struct {
	Type         string `json:"type"`
	Mode         string `json:"mode"` // "inproc", "tcp" or "sim"
	Clients      int    `json:"clients"`
	OpsPerClient int    `json:"ops_per_client,omitempty"`
	DurationMS   int64  `json:"duration_ms,omitempty"`
	Mix          string `json:"mix,omitempty"`
	Seed         int64  `json:"seed"`
	N            int    `json:"n"`
	D            int64  `json:"d"`
	U            int64  `json:"u"`
	Epsilon      int64  `json:"eps"`
	X            int64  `json:"x"`
	TickNS       int64  `json:"tick_ns,omitempty"`
	// Pipeline echoes LoadConfig.Pipeline when above the default 1, so
	// single-op-in-flight summaries (and their goldens) are unchanged.
	Pipeline int `json:"pipeline,omitempty"`
	// Sharded-mode echo (absent in single-object runs).
	Shards   int     `json:"shards,omitempty"`
	KeyCount int     `json:"keys,omitempty"`
	Zipf     float64 `json:"zipf,omitempty"`
}

// ClassReport compares one class's measured latencies to its formula.
type ClassReport struct {
	Latency      Quantiles `json:"latency_ticks"`
	FormulaTicks int64     `json:"formula_ticks"`
	BudgetTicks  int64     `json:"jitter_budget_ticks"`
	// WithinBudget reports p99 ≤ formula + budget — the latency SLO the
	// serving layer is continuously tested against. (Latencies may fall
	// below the formula: the formulas are worst cases, and a mixed
	// operation responds early when a concurrent mutator's drain executes
	// it before its own stabilization timer fires.)
	WithinBudget bool `json:"within_budget"`
}

// ShardReport is one shard's slice of a keyed load run: the operations
// whose keys route to it, compared against that shard's own formulas
// (each shard may run a different X).
type ShardReport struct {
	Shard    int                    `json:"shard"`
	X        int64                  `json:"x"`
	Keys     int                    `json:"keys"`
	Ops      int                    `json:"ops"`
	PerClass map[string]ClassReport `json:"per_class"`
}

// Summary is the JSON document a load run emits (`lintime load -o`).
type Summary struct {
	Config   SummaryConfig `json:"config"`
	TotalOps int           `json:"total_ops"`
	// Unavailable counts call attempts that failed with ErrCrashed — a
	// request routed to a replica in the instant before its crash was
	// observed. The client retried on a live replica; this is the
	// availability cost of the crash. Omitted on healthy runs so their
	// summaries (and goldens) are unchanged.
	Unavailable int `json:"unavailable,omitempty"`
	// ElapsedMS is the measured window: from after the workers were set
	// up (connections warm, mix expanded) to the last response. The
	// configured duration is a floor on this, never the reported value —
	// see OpsPerSec.
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	// OpsPerSec is TotalOps over the measured window (wall-clock runs
	// only; virtual-time summaries omit both fields).
	OpsPerSec float64                `json:"ops_per_sec,omitempty"`
	OpCounts  map[string]int         `json:"op_counts"`
	PerClass  map[string]ClassReport `json:"per_class"`
	PerShard  []ShardReport          `json:"per_shard,omitempty"`
	PerOp     map[string]Quantiles   `json:"per_op"`
}

// SLOMet reports whether every class met its latency budget — in
// sharded runs, on every shard as well as in aggregate.
func (s *Summary) SLOMet() bool {
	for _, c := range s.PerClass {
		if !c.WithinBudget {
			return false
		}
	}
	for _, sh := range s.PerShard {
		for _, c := range sh.PerClass {
			if !c.WithinBudget {
				return false
			}
		}
	}
	return true
}

// RunLoad drives the closed-loop workload against target and summarizes
// the observed latencies. tick is the target cluster's tick duration
// (sets the jitter budget; pass 0 for virtual-time runs). The per-client
// response logs are merged in client order, so with OpsPerClient set the
// summary is a deterministic function of the configuration.
func RunLoad(target Caller, dt spec.DataType, p simtime.Params, tick time.Duration, cfg LoadConfig) (*Summary, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("serve: need at least one client, got %d", cfg.Clients)
	}
	if cfg.OpsPerClient <= 0 && cfg.Duration <= 0 {
		return nil, fmt.Errorf("serve: load needs a duration or an op count")
	}
	backend, err := lookupServable(cfg.Backend)
	if err != nil {
		return nil, err
	}
	picks, err := harness.ExpandMixOps(dt, cfg.Mix)
	if err != nil {
		return nil, err
	}
	keyed := len(cfg.Keys) > 0
	for _, k := range cfg.Keys {
		if k == "" {
			return nil, fmt.Errorf("serve: keyed load: empty object key")
		}
	}
	classes := harness.ClassesFor(dt)

	logs := make([][]sim.OpRecord, cfg.Clients)
	errs := make([]error, cfg.Clients)
	unavail := make([]int, cfg.Clients)
	// The measurement window opens here — after mix expansion,
	// classification and target warm-up — not at entry. Computing the
	// deadline from a timestamp taken before setup silently shortened
	// every run by however long setup took (connection dials, the
	// classifier's first pass over the type); the summary now also
	// reports the window actually measured, not the one requested.
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	pipeline := cfg.Pipeline
	if pipeline <= 0 {
		pipeline = 1
	}
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		i := i
		// The client's rng, budget, and log are shared by its pipeline
		// workers under one lock. Draws are serialized: the j-th draw of a
		// client's run is the j-th rng value no matter which worker takes
		// it, so the issued operation multiset stays deterministic while k
		// operations run concurrently.
		rng := rand.New(rand.NewSource(
			harness.DeriveSeed(cfg.Seed, fmt.Sprintf("load/client/%d", i))))
		var zipf *rand.Zipf
		if len(cfg.Keys) > 1 && cfg.Zipf > 1 {
			zipf = rand.NewZipf(rng, cfg.Zipf, 1, uint64(len(cfg.Keys)-1))
		}
		var cmu sync.Mutex
		issued := 0
		for w := 0; w < pipeline; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if cfg.Stop != nil {
						select {
						case <-cfg.Stop:
							return
						default:
						}
					}
					if cfg.OpsPerClient <= 0 && !time.Now().Before(deadline) {
						return
					}
					cmu.Lock()
					if errs[i] != nil || (cfg.OpsPerClient > 0 && issued >= cfg.OpsPerClient) {
						cmu.Unlock()
						return
					}
					n := issued
					issued++
					pick := picks[rng.Intn(len(picks))]
					op, arg := pick.Name, pick.Args[rng.Intn(len(pick.Args))]
					key := ""
					if keyed {
						if zipf != nil {
							key = cfg.Keys[int(zipf.Uint64())]
						} else {
							key = cfg.Keys[rng.Intn(len(cfg.Keys))]
						}
					}
					cmu.Unlock()
					var r rtnet.Response
					var err error
					if keyed {
						r, err = target.CallKey(key, op, arg)
					} else {
						r, err = target.Call(op, arg)
					}
					if err != nil {
						// A call that raced a crash — submitted to a replica's
						// queue just before the crash was observed — fails with
						// ErrCrashed. That is the crash's availability cost, not a
						// run failure: count it and retry on a live replica (the
						// router skips dead replicas for all later calls).
						if errors.Is(err, rtnet.ErrCrashed) {
							cmu.Lock()
							unavail[i]++
							cmu.Unlock()
							continue
						}
						cmu.Lock()
						if errs[i] == nil {
							errs[i] = fmt.Errorf("serve: client %d op %d (%s): %w", i, n, op, err)
						}
						cmu.Unlock()
						return
					}
					cmu.Lock()
					logs[i] = append(logs[i], sim.OpRecord{
						Proc: r.Proc, SeqID: r.Seq, Op: r.Op, Arg: r.Arg, Ret: r.Ret,
						InvokeTime: r.Invoke, RespondTime: r.Respond,
					})
					cmu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var ops []sim.OpRecord
	for _, log := range logs {
		ops = append(ops, log...)
	}
	echo := SummaryConfig{
		Type: dt.Name(), Clients: cfg.Clients, OpsPerClient: cfg.OpsPerClient,
		DurationMS: cfg.Duration.Milliseconds(), Mix: FormatMix(cfg.Mix), Seed: cfg.Seed,
		N: p.N, D: int64(p.D), U: int64(p.U), Epsilon: int64(p.Epsilon), X: int64(p.X),
		TickNS: tick.Nanoseconds(),
		Shards: len(cfg.ShardParams), KeyCount: len(cfg.Keys), Zipf: cfg.Zipf,
	}
	if pipeline > 1 {
		echo.Pipeline = pipeline
	}
	// The aggregate rows are judged against the worst case over the
	// clusters' bounds: each shard may run its own X, so the fleet-wide
	// bound for a class is the laxest shard's (a single cluster's is its own).
	clusters := cfg.ShardParams
	if len(clusters) == 0 {
		clusters = []simtime.Params{p}
	}
	sum := Summarize(func(class classify.Class) simtime.Duration {
		worst := backend.Bound(clusters[0], class)
		for _, sp := range clusters[1:] {
			if f := backend.Bound(sp, class); f > worst {
				worst = f
			}
		}
		return worst
	}, tick, classes, ops, echo)
	if len(cfg.ShardParams) > 0 {
		sum.PerShard = ShardSummaries(cfg.ShardParams, tick, classes, ops)
	}
	for _, u := range unavail {
		sum.Unavailable += u
	}
	if tick > 0 {
		sum.ElapsedMS = elapsed.Milliseconds()
		if secs := elapsed.Seconds(); secs > 0 {
			sum.OpsPerSec = float64(sum.TotalOps) / secs
		}
	}
	return sum, nil
}

// ShardSummaries splits keyed operation records by their keys' home
// shards (ShardFor against len(shardParams)) and reports each shard's
// per-class latencies against that shard's own formulas. Records whose
// arguments are not keyed are skipped.
func ShardSummaries(shardParams []simtime.Params, tick time.Duration,
	classes map[string]classify.Class, ops []sim.OpRecord) []ShardReport {
	shards := len(shardParams)
	byShard := make([][]sim.OpRecord, shards)
	keysOf := make([]map[string]struct{}, shards)
	for i := range keysOf {
		keysOf[i] = map[string]struct{}{}
	}
	for _, op := range ops {
		key, _, ok := adt.SplitKeyArg(op.Arg)
		if !ok {
			continue
		}
		sh := ShardFor(key, shards)
		byShard[sh] = append(byShard[sh], op)
		keysOf[sh][key] = struct{}{}
	}
	out := make([]ShardReport, shards)
	for i := range out {
		p := shardParams[i]
		s := Summarize(func(class classify.Class) simtime.Duration {
			return FormulaTicks(p, class)
		}, tick, classes, byShard[i], SummaryConfig{})
		out[i] = ShardReport{
			Shard: i, X: int64(p.X), Keys: len(keysOf[i]),
			Ops: s.TotalOps, PerClass: s.PerClass,
		}
	}
	return out
}

// Summarize aggregates completed operations into the load summary:
// per-operation and per-class quantiles, each class against bound(class)
// and the jitter budget for the given tick. The virtual-time path
// (lintime load -sim) feeds trace operations through the same code, so
// real and simulated runs produce identical documents up to latency
// values.
func Summarize(bound func(classify.Class) simtime.Duration, tick time.Duration,
	classes map[string]classify.Class, ops []sim.OpRecord, echo SummaryConfig) *Summary {
	perClass, perOp := foldLatencies(classes, ops)
	budget := JitterBudget(tick)
	sum := &Summary{
		Config:   echo,
		OpCounts: make(map[string]int, len(perOp)),
		PerClass: make(map[string]ClassReport, len(perClass)),
		PerOp:    perOp,
	}
	for class, q := range perClass {
		f := bound(class)
		sum.PerClass[class.String()] = ClassReport{
			Latency:      q,
			FormulaTicks: int64(f),
			BudgetTicks:  int64(budget),
			WithinBudget: q.P99 <= int64(f+budget),
		}
		sum.TotalOps += q.Count
	}
	for op, q := range perOp {
		sum.OpCounts[op] = q.Count
	}
	return sum
}

// FormatMix renders a mix as the CLI accepts it ("enqueue=3,peek=1");
// empty means uniform over all declared operations.
func FormatMix(mix []harness.OpPick) string {
	s := ""
	for i, m := range mix {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s=%d", m.Op, m.Weight)
	}
	return s
}
