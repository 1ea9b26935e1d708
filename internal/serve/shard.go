// Sharded serving: a keyspace of named objects hash-sharded onto
// independent clusters behind one router, the only front end of the
// serving layer.
//
// Linearizability composes per object — a history over many objects is
// linearizable iff each object's subhistory is (Herlihy & Wing's
// locality theorem) — so horizontal scale comes for free as long as
// every operation on an object is served by the same cluster. The
// ShardSet enforces exactly that invariant: FNV-1a(key) mod M picks the
// shard, each shard is a full n-replica cluster (its own rtnet
// substrate, its own X tuning), and the router multiplexes client
// connections across shards. The per-object checker then *verifies* the
// composition instead of assuming it: every recorded operation must sit
// on its key's home shard, and every key's (single-shard, hence
// single-timebase) history must linearize against the base type.
//
// A single object is the M = 1 case of the same argument. Its one shard
// serves the base type itself on the master seed, under the unlabeled
// metric names, so it runs exactly the cluster a standalone Server would.
// The router's one key rule follows: a request names an object iff M > 1.
//
// What the composition boundary cannot give: an operation spanning two
// objects on different shards (a cross-shard Bank transfer) has no
// single cluster ordering it, and the shards' virtual clocks share no
// common epoch — that is where sequential-consistency-style composition
// questions (Perrin et al.) begin, and where this design deliberately
// stops.
package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lintime/internal/adt"
	"lintime/internal/harness"
	"lintime/internal/lincheck"
	"lintime/internal/obs"
	"lintime/internal/rtnet"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// ShardSetConfig describes a deployment: the base cluster configuration
// replicated per shard, the shard count, and optional per-shard X
// overrides.
type ShardSetConfig struct {
	Config
	// Shards is the number of independent clusters M (default 1).
	Shards int
	// ShardX optionally tunes each shard's accessor/mutator trade-off
	// independently: len must be 0 (every shard uses Config.Params.X) or
	// Shards. A hot read-mostly shard can run a low X while a write-heavy
	// one runs high, without touching the others.
	ShardX []simtime.Duration
}

// ShardSet is a running deployment: M independent shards (Servers) plus
// the router that spreads keys across them and fronts them in process
// and over TCP. At M > 1 each shard serves a keyed family (adt.Keyed) of
// the base type; at M = 1 its one shard serves the base type.
type ShardSet struct {
	cfg    ShardSetConfig
	inner  spec.DataType
	shards []*Server

	draining  atomic.Bool
	drainOnce sync.Once
	drainErr  error

	reg       *obs.Registry
	routed    []*obs.Counter
	routeErrs *obs.Counter

	fe frontend

	// misroute, when non-nil, overrides the routing decision — a test
	// hook for the deliberately-misrouted-write mutant that the
	// per-object checker must catch.
	misroute func(key string, shard int) int
}

// NewShardSet builds the deployment. At M > 1 shard i's cluster derives
// its seed from the master seed and i, so shards draw independent delay
// and offset streams; its X comes from ShardX[i] when given. An empty
// TypeName means the backend's own type, as in New.
func NewShardSet(cfg ShardSetConfig) (*ShardSet, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if len(cfg.ShardX) != 0 && len(cfg.ShardX) != cfg.Shards {
		return nil, fmt.Errorf("serve: ShardX has %d entries for %d shards", len(cfg.ShardX), cfg.Shards)
	}
	if cfg.DataType != nil {
		return nil, errors.New("serve: ShardSetConfig takes a TypeName, not an explicit DataType")
	}
	if cfg.TypeName == "" {
		backend, err := lookupServable(cfg.Backend)
		if err != nil {
			return nil, err
		}
		cfg.TypeName = backend.DefaultType
	}
	inner, err := adt.Lookup(cfg.TypeName)
	if err != nil {
		return nil, err
	}
	ss := &ShardSet{
		cfg:   cfg,
		inner: inner,
		reg:   obs.NewRegistry(),
	}
	ss.routeErrs = ss.reg.Counter("router_route_errors_total")
	ss.reg.Gauge("router_shards").Set(int64(cfg.Shards))
	for i := 0; i < cfg.Shards; i++ {
		scfg := cfg.Config
		if cfg.Shards > 1 {
			scfg.DataType = adt.NewKeyed(inner)
			scfg.ShardLabel = strconv.Itoa(i)
			scfg.Seed = harness.DeriveSeed(cfg.Seed, fmt.Sprintf("serve/shard/%d", i))
		}
		if len(cfg.ShardX) != 0 {
			scfg.Params.X = cfg.ShardX[i]
		}
		shard, err := New(scfg)
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		ss.shards = append(ss.shards, shard)
		ss.routed = append(ss.routed,
			ss.reg.Counter(obs.WithLabel("router_requests_total", "shard", strconv.Itoa(i))))
	}
	ss.fe = frontend{
		opNames:    spec.OpNames(inner),
		connsTotal: ss.reg.Counter("serve_connections_total"),
		conns:      map[net.Conn]struct{}{},
	}
	return ss, nil
}

// ShardFor maps an object key onto its home shard: 64-bit FNV-1a mod M.
// The mapping is part of the deployment contract (rebalancing moves
// objects between clusters), so it is pinned by a table-driven test.
func (ss *ShardSet) ShardFor(key string) int {
	return ShardFor(key, len(ss.shards))
}

// ShardFor is the routing function itself, exported for clients that
// shard their own summaries (the TCP load generator).
func ShardFor(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(shards))
}

// Shards returns the shard count M.
func (ss *ShardSet) Shards() int { return len(ss.shards) }

// Shard returns shard i's underlying server (tests, stats, crash
// injection).
func (ss *ShardSet) Shard(i int) *Server { return ss.shards[i] }

// Type returns the base (un-keyed) data type.
func (ss *ShardSet) Type() spec.DataType { return ss.inner }

// Config returns the shard-set configuration (defaults resolved).
func (ss *ShardSet) Config() ShardSetConfig { return ss.cfg }

// Start launches every shard cluster.
func (ss *ShardSet) Start() {
	for _, s := range ss.shards {
		s.Start()
	}
}

// SetTracers installs one collector per shard cluster, built by make
// (shard clusters number their processes and operations independently,
// so sharing one collector would collide span ids across shards). Must
// be called before Start.
func (ss *ShardSet) SetTracers(make func(shard int) *obs.Collector) {
	for i, s := range ss.shards {
		s.SetTracer(make(i))
	}
}

// Call executes one operation against the single object of an M = 1
// deployment. At M > 1 there is no "the" object, and guessing a shard
// would silently talk to the wrong one, so the call is refused.
func (ss *ShardSet) Call(op string, arg any) (rtnet.Response, error) {
	if len(ss.shards) > 1 {
		return rtnet.Response{}, fmt.Errorf("serve: sharded deployment (%d shards) needs an object key (use CallKey)", len(ss.shards))
	}
	r, _, err := ss.route("", op, arg, -1)
	return r, err
}

// CallKey executes one operation against the named object, routing it to
// the key's home shard. Blocks until the response, like Server.Call.
func (ss *ShardSet) CallKey(key, op string, arg any) (rtnet.Response, error) {
	r, _, err := ss.route(key, op, arg, -1)
	return r, err
}

// route is the router, in process and on the wire. It applies the one key
// rule — a request names an object iff the deployment has more than one
// shard — and hands the call, carrying its causal parent span, to its
// shard, whose index it returns.
func (ss *ShardSet) route(key, op string, arg any, parent int64) (rtnet.Response, int, error) {
	if len(ss.shards) == 1 {
		if key != "" {
			return rtnet.Response{}, 0, errors.New(
				"serve: single-object server: request has an object key (connect to a shard router, or drop the key)")
		}
		ss.routed[0].Inc()
		r, err := ss.shards[0].callTraced(op, arg, parent)
		return r, 0, err
	}
	if key == "" {
		return rtnet.Response{}, 0, fmt.Errorf("serve: shard router (%d shards): request needs an object key", len(ss.shards))
	}
	shard := ss.ShardFor(key)
	if ss.misroute != nil {
		shard = ss.misroute(key, shard)
	}
	karg, err := adt.KeyArg(key, arg)
	if err != nil {
		ss.routeErrs.Inc()
		return rtnet.Response{}, shard, err
	}
	ss.routed[shard].Inc()
	r, err := ss.shards[shard].callTraced(op, karg, parent)
	return r, shard, err
}

// Drain gracefully shuts the whole deployment down: the router's
// listeners close, every shard drains in parallel — refusing new calls,
// completing what is in flight, stopping its cluster — within the one
// timeout, and only then do open connections flush their pending
// responses and close. Idempotent; later calls return the first drain's
// result.
func (ss *ShardSet) Drain(timeout time.Duration) error {
	ss.drainOnce.Do(func() { ss.drainErr = ss.drain(timeout) })
	return ss.drainErr
}

func (ss *ShardSet) drain(timeout time.Duration) error {
	// Flag the drain before closing listeners: Serve's accept loop tells
	// a drain-initiated close from a failure by it.
	ss.draining.Store(true)
	ss.fe.closeListeners()
	// A call that slipped past the router as the drain began meets its
	// shard's own refusal (ErrDraining), so the router needs no in-flight
	// gate of its own, and the shards start at once and run concurrently
	// on the same budget.
	var wg sync.WaitGroup
	errs := make([]error, len(ss.shards))
	for i, s := range ss.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.Drain(timeout)
		}()
	}
	wg.Wait()
	// Responses for requests that raced the drain flush before their
	// connections close.
	ss.fe.shutdownConns()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("serve: shard %d drain: %w", i, err)
		}
	}
	return nil
}

// Stats aggregates latency accounting across all shards: the quantiles
// are folded from the merged record lists, so they are exact for the
// whole deployment.
func (ss *ShardSet) Stats() Stats {
	var ops []sim.OpRecord
	var overflow *OverflowInfo
	for _, s := range ss.shards {
		ops = append(ops, s.rec.ops()...)
		if o := s.overflow(); o != nil {
			if overflow == nil {
				overflow = &OverflowInfo{}
			}
			overflow.Count += o.Count
			overflow.LastProc = o.LastProc
		}
	}
	st := statsOf(harness.ClassesFor(ss.inner), ops)
	st.Overflow = overflow
	return st
}

// Registries returns every registry of the deployment — the router's
// plus each shard's — for the merged observability endpoint.
func (ss *ShardSet) Registries() []*obs.Registry {
	regs := []*obs.Registry{ss.reg}
	for _, s := range ss.shards {
		regs = append(regs, s.Registry())
	}
	return regs
}

// ObsHandler returns the observability HTTP handler for the deployment:
// router and shard registries merged with obs.Default (harness/fuzzer
// instruments), serving /metrics, /metrics.json, /debug/vars and
// /debug/pprof/.
func (ss *ShardSet) ObsHandler() http.Handler {
	return obs.Handler(append(ss.Registries(), obs.Default)...)
}

// RoutingViolation reports an operation recorded on a shard that is not
// its key's home — the invariant whose preservation makes per-object
// linearizability compose across the deployment.
type RoutingViolation struct {
	Key       string `json:"key"`
	Shard     int    `json:"shard"`      // where the op was recorded
	HomeShard int    `json:"home_shard"` // where ShardFor sends the key
	Op        string `json:"op"`
}

// ObjectCheckReport is the outcome of the per-object composition check.
type ObjectCheckReport struct {
	Keys              int                `json:"keys"`
	Ops               int                `json:"ops"`
	RoutingViolations []RoutingViolation `json:"routing_violations,omitempty"`
	// NonLinearizable lists keys whose home-shard history failed the
	// linearizability check against the base type.
	NonLinearizable []string `json:"non_linearizable_keys,omitempty"`
}

// OK reports whether composition held: every op on its home shard and
// every object's history linearizable.
func (r ObjectCheckReport) OK() bool {
	return len(r.RoutingViolations) == 0 && len(r.NonLinearizable) == 0
}

// CheckPerObject runs the composition check over everything recorded so
// far (call it after Drain, or at a quiescent point): it verifies the
// routing invariant and then checks each key's projected history against
// the base type with the linearizability checker. Each key's history
// lives on a single shard — a single virtual timebase — so the per-key
// checks are sound without cross-cluster clock comparison; that is
// precisely why the routing invariant is checked first.
func (ss *ShardSet) CheckPerObject(workers int) ObjectCheckReport {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	rep := ObjectCheckReport{}
	perKey := map[string][]sim.OpRecord{}
	keyParams := map[string]simtime.Params{}
	for i, s := range ss.shards {
		tr := s.Trace()
		for _, op := range tr.Ops {
			key, innerArg, ok := adt.SplitKeyArg(op.Arg)
			if !ok {
				// Not a keyed record: impossible through CallKey; surface
				// as a routing violation rather than silently skipping.
				rep.RoutingViolations = append(rep.RoutingViolations,
					RoutingViolation{Key: "", Shard: i, HomeShard: -1, Op: op.Op})
				continue
			}
			rep.Ops++
			if home := ss.ShardFor(key); home != i {
				rep.RoutingViolations = append(rep.RoutingViolations,
					RoutingViolation{Key: key, Shard: i, HomeShard: home, Op: op.Op})
				continue
			}
			proj := op
			proj.Arg = innerArg
			perKey[key] = append(perKey[key], proj)
			keyParams[key] = tr.Params
		}
	}
	rep.Keys = len(perKey)
	keys := make([]string, 0, len(perKey))
	for k := range perKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		tr := &sim.Trace{Params: keyParams[key], Ops: perKey[key]}
		if !lincheck.CheckTraceParallel(ss.inner, tr, workers).Linearizable {
			rep.NonLinearizable = append(rep.NonLinearizable, key)
		}
	}
	return rep
}

// SetMisroute installs a test-only routing fault: every routing decision
// flows through f. Used by the misrouted-write mutant test to prove the
// per-object checker catches composition violations. Must be set before
// traffic.
func (ss *ShardSet) SetMisroute(f func(key string, shard int) int) { ss.misroute = f }
