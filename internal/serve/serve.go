// Package serve is the client-facing serving layer over the real-time
// substrate. There is one serving topology: a ShardSet of M independent
// n-replica rtnet clusters behind one router (shard.go), which is the only
// front end — in process (Call, CallKey) and over TCP (proto.go, wire.go).
// A single object is the M = 1 case, not a second deployment.
//
// A Server is one shard: it boots an n-replica cluster running the
// chosen backend, routes invocations to replicas while preserving the
// model's one-pending-operation-per-process rule, and records every
// completed operation once (Stats and the load summaries fold that record
// list into per-class AOP/MOP/OOP and per-operation latency quantiles on
// demand; /metrics streams its own live histograms).
//
// Routing: requests are spread round-robin over the live replicas, and
// each replica's one-token slot lets one caller at a time invoke through
// it, so each process has at most one operation pending — exactly the
// client behavior the paper's model assumes. The caller invokes and waits
// on its own goroutine; callers routed to a busy replica block on its slot
// and take it in arrival order, which is the closed-loop backpressure the
// load generator expects.
//
// Shutdown is a graceful drain within one time budget: new calls are
// refused, every in-flight operation completes, then the cluster drains
// and its scheduler exits. Nothing is dropped.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/harness"
	"lintime/internal/obs"
	"lintime/internal/rtnet"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// ErrDraining is returned by Call once a drain has begun.
var ErrDraining = errors.New("serve: server is draining")

// ErrAllCrashed is returned by Call when every replica has been crashed.
var ErrAllCrashed = errors.New("serve: all replicas crashed")

// Config describes one served cluster.
type Config struct {
	Params simtime.Params
	// Backend names the replicated protocol: any harness backend that
	// declares a latency bound (empty = Algorithm 1).
	// Under a fault-tolerant one Crash is survivable for any minority.
	Backend  string
	TypeName string        // data type to serve (default: the backend's)
	Tick     time.Duration // wall-clock duration of one virtual tick (default 1ms)
	Offsets  string        // harness offset assignment name (default zero)
	Seed     int64         // master seed; sub-streams are derived per use
	// InboxDepth bounds each rtnet process inbox (default
	// rtnet.DefaultInboxDepth). An overflow is a cluster failure surfaced
	// through Call/Drain errors, never a silent stall.
	InboxDepth int
	// DataType, when non-nil, overrides TypeName with an explicit data
	// type instance. A shard set of M > 1 uses it to serve a keyed family
	// (adt.Keyed) that has no registry name.
	DataType spec.DataType
	// ShardLabel, when non-empty, is folded into every metric name as a
	// shard="..." label so many shard clusters can merge onto one
	// observability endpoint without collisions. Empty (M = 1) keeps the
	// historical unlabeled names.
	ShardLabel string
}

// Server is one shard: a running serving layer over one rtnet cluster.
// It has no listener; the ShardSet router is its front end.
type Server struct {
	cfg     Config
	dt      spec.DataType
	classes map[string]classify.Class
	offsets []simtime.Duration
	cluster *rtnet.Cluster
	bound   func(simtime.Params, classify.Class) simtime.Duration

	// slots holds one token channel of capacity 1 per replica: a caller
	// holds the token while its operation is pending at that process.
	slots []chan struct{}
	dead  []atomic.Bool // replicas removed from routing by Crash
	next  atomic.Int64

	mu       sync.Mutex
	started  bool
	draining bool
	inflight sync.WaitGroup

	drainOnce sync.Once
	drainErr  error

	rec  *recorder
	reg  *obs.Registry
	obsm *serveMetrics

	// traceColl is the span sink SetTracer installed (nil = tracing off):
	// callTraced attributes every completed operation's latency into
	// the per-class term histograms, and the flight recorder can dump the
	// collector's retained trees.
	traceColl *obs.Collector
	attrP     obs.AttrParams
}

// New builds one shard for the configuration. Call Start before Call.
func New(cfg Config) (*Server, error) {
	backend, err := lookupServable(cfg.Backend)
	if err != nil {
		return nil, err
	}
	if cfg.TypeName == "" {
		cfg.TypeName = backend.DefaultType
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Millisecond
	}
	dt := cfg.DataType
	if dt == nil {
		dt, err = adt.Lookup(cfg.TypeName)
		if err != nil {
			return nil, err
		}
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	classes := harness.ClassesFor(dt)
	offsets, err := harness.Offsets(cfg.Offsets, cfg.Params, harness.DeriveSeed(cfg.Seed, "serve/offsets"))
	if err != nil {
		return nil, err
	}
	build, err := backend.Builder(cfg.Params, dt, "", nil)
	if err != nil {
		return nil, err
	}
	cluster, err := rtnet.NewCluster(
		rtnet.Params{Params: cfg.Params, InboxDepth: cfg.InboxDepth},
		cfg.Tick, offsets, build(dt), harness.DeriveSeed(cfg.Seed, "serve/net"))
	if err != nil {
		return nil, err
	}
	cluster.SetClasses(classes)
	s := &Server{
		cfg:     cfg,
		dt:      dt,
		classes: classes,
		offsets: offsets,
		cluster: cluster,
		bound:   backend.Bound,
		slots:   make([]chan struct{}, cfg.Params.N),
		dead:    make([]atomic.Bool, cfg.Params.N),
		rec:     &recorder{},
	}
	for i := range s.slots {
		s.slots[i] = make(chan struct{}, 1)
	}
	s.wireMetrics()
	return s, nil
}

// Type returns the served data type.
func (s *Server) Type() spec.DataType { return s.dt }

// Classes returns the computed operation classification (read-only).
func (s *Server) Classes() map[string]classify.Class { return s.classes }

// Config returns the server configuration (with defaults resolved).
func (s *Server) Config() Config { return s.cfg }

// Start launches the cluster. The shard runs no goroutine of its own:
// every call runs on its caller's.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	s.cluster.Start()
}

// Call executes one operation against the served object and blocks until
// its response. Safe for any number of concurrent callers; each request
// occupies one replica slot, so at most n operations are in flight at
// once and each process has at most one pending operation.
func (s *Server) Call(op string, arg any) (rtnet.Response, error) {
	return s.callTraced(op, arg, -1)
}

// callTraced is Call carrying a causal parent span — the client-side
// span propagated through the wire protocol's trace context — recorded
// as the operation's parent edge when a collector is installed.
func (s *Server) callTraced(op string, arg any, parent int64) (rtnet.Response, error) {
	// The class table names every operation of the type (a keyed family
	// shares its basis type's), so validating against it allocates nothing.
	if _, ok := s.classes[op]; !ok {
		return rtnet.Response{}, fmt.Errorf("serve: type %s has no operation %q", s.dt.Name(), op)
	}
	s.mu.Lock()
	if !s.started || s.draining {
		s.mu.Unlock()
		if !s.started {
			return rtnet.Response{}, errors.New("serve: server not started")
		}
		return rtnet.Response{}, ErrDraining
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	s.obsm.calls.Inc()
	s.obsm.inflight.Add(1)
	defer s.obsm.inflight.Add(-1)
	defer s.inflight.Done()
	// Round-robin over the live replicas: the counter advances once per
	// call and indexes the survivors, so crashed replicas drop out of
	// rotation and the rest share their calls evenly. (Walking forward to
	// the next live slot would hand a dead replica's share to its
	// successor alone.)
	var buf [16]int
	live := buf[:0]
	for i := range s.dead {
		if !s.dead[i].Load() {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		s.obsm.errors.Inc()
		return rtnet.Response{}, ErrAllCrashed
	}
	proc := live[int(s.next.Add(1)-1)%len(live)]
	slot := s.slots[proc]
	slot <- struct{}{}
	defer func() { <-slot }()
	resp, err := s.cluster.CallTraced(sim.ProcID(proc), op, arg, parent)
	if err != nil {
		s.obsm.errors.Inc()
		return resp, err
	}
	s.rec.record(resp)
	s.obsm.observe(resp.Class, int64(resp.Latency()))
	if s.traceColl != nil {
		if a, ok := s.traceColl.Attribute(resp.Seq, resp.Class.String(),
			int64(resp.Invoke), s.attrP); ok {
			s.obsm.observeTerms(resp.Class, a)
		}
	}
	return resp, nil
}

// Crash fails replica i: it is removed from routing (later Calls skip
// it) and its process is crashed on the substrate — timers canceled,
// pending operations failed with rtnet.ErrCrashed, subsequent deliveries
// dropped. With the quorum backend any minority of replicas can be
// crashed and the survivors keep serving; under Algorithm 1 a crash
// wedges mutators cluster-wide (every process must apply every update),
// which is exactly the availability gap the head-to-head measures.
func (s *Server) Crash(i int) {
	if i < 0 || i >= len(s.dead) {
		return
	}
	if s.dead[i].Swap(true) {
		return
	}
	s.cluster.Crash(sim.ProcID(i))
}

// Crashed reports whether replica i has been crashed.
func (s *Server) Crashed(i int) bool {
	return i >= 0 && i < len(s.dead) && s.dead[i].Load()
}

// Formula returns the worst-case latency bound the server judges the
// class against: its backend's bound at the served parameters.
func (s *Server) Formula(class classify.Class) simtime.Duration {
	return s.bound(s.cfg.Params, class)
}

// lookupServable resolves a backend the serving layer can judge: one that
// declares a latency bound.
func lookupServable(name string) (*harness.Backend, error) {
	b, err := harness.Lookup(name)
	if err != nil {
		return nil, err
	}
	if b.Bound == nil {
		return nil, fmt.Errorf("serve: backend %q declares no latency bound to serve against", b.Name)
	}
	return b, nil
}

// Drain gracefully shuts the shard down: refuse new calls, wait for every
// in-flight operation to respond, then drain and stop the cluster. Both
// phases share the one timeout: the cluster gets what the in-flight wait
// left over. Idempotent; later calls return the first drain's result.
func (s *Server) Drain(timeout time.Duration) error {
	s.drainOnce.Do(func() { s.drainErr = s.drain(timeout) })
	return s.drainErr
}

func (s *Server) drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	s.mu.Lock()
	started := s.started
	s.draining = true
	s.mu.Unlock()
	s.obsm.drainState.Set(1)
	defer s.obsm.drainState.Set(2)
	if !started {
		return nil
	}

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var timedOut error
	select {
	case <-done:
	case <-time.After(timeout):
		timedOut = fmt.Errorf("serve: drain timed out after %v with operations in flight", timeout)
	}
	// Past the deadline the cluster stops at once, failing whatever is
	// still pending, so the calls above return instead of hanging.
	err := s.cluster.Drain(time.Until(deadline))
	if timedOut != nil {
		return timedOut
	}
	return err
}

// Stats returns the latency accounting accumulated so far, including
// inbox-overflow accounting when any overflow occurred.
func (s *Server) Stats() Stats {
	st := statsOf(s.classes, s.rec.ops())
	st.Overflow = s.overflow()
	return st
}

// overflow reports the cluster's inbox-overflow accounting, nil when no
// overflow occurred.
func (s *Server) overflow() *OverflowInfo {
	n := s.cluster.Overflows()
	if n == 0 {
		return nil
	}
	return &OverflowInfo{Count: n, LastProc: s.cluster.LastOverflowProc()}
}

// Trace assembles the recorded operations into a sim.Trace for the
// linearizability checker and the diagram renderer. Operations are in
// completion order; messages and steps are not recorded on this
// substrate.
func (s *Server) Trace() *sim.Trace {
	return &sim.Trace{
		Params:  s.cfg.Params,
		Offsets: append([]simtime.Duration(nil), s.offsets...),
		Ops:     s.rec.ops(),
	}
}

// Quantiles is the JSON-ready summary of a latency distribution, in
// virtual ticks: nearest-rank order statistics and the mean rounded
// toward zero.
type Quantiles struct {
	Count int   `json:"count"`
	Min   int64 `json:"min"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
	Max   int64 `json:"max"`
	Mean  int64 `json:"mean"`
}

// Stats is the JSON-ready latency accounting of a shard, a shard set or a
// load run.
type Stats struct {
	Ops      int                  `json:"ops"`
	PerClass map[string]Quantiles `json:"per_class"`
	PerOp    map[string]Quantiles `json:"per_op"`
	// Overflow is set only when the cluster recorded an inbox overflow —
	// nil keeps healthy-run documents (and their goldens) unchanged.
	Overflow *OverflowInfo `json:"inbox_overflow,omitempty"`
}

// OverflowInfo reports inbox-overflow accounting: how many overflows the
// substrate recorded and which process's inbox overflowed last.
type OverflowInfo struct {
	Count    int64 `json:"count"`
	LastProc int32 `json:"last_proc"`
}

// foldLatencies is the one place operation records become latency
// quantiles: completed operations grouped by class (classes[op], Mixed
// when the map has no entry) and by operation name; pending ones are
// skipped. Every sample is in hand, so the histograms are sized past the
// largest one and the quantiles are exact order statistics for any input.
func foldLatencies(classes map[string]classify.Class, ops []sim.OpRecord) (map[classify.Class]Quantiles, map[string]Quantiles) {
	limit := 1
	for _, op := range ops {
		if !op.Pending() && int(op.Latency()) >= limit {
			limit = int(op.Latency()) + 1
		}
	}
	classHists := map[classify.Class]*obs.Hist{}
	opHists := map[string]*obs.Hist{}
	for _, op := range ops {
		if op.Pending() {
			continue
		}
		class, ok := classes[op.Op]
		if !ok {
			class = classify.Mixed
		}
		lat := int64(op.Latency())
		observe(classHists, class, limit, lat)
		observe(opHists, op.Op, limit, lat)
	}
	return quantilesOf(classHists), quantilesOf(opHists)
}

// observe adds one sample to key k's histogram, created on first use.
func observe[K comparable](hists map[K]*obs.Hist, k K, limit int, v int64) {
	h := hists[k]
	if h == nil {
		h = obs.NewHist(limit)
		hists[k] = h
	}
	h.Add(v)
}

func quantilesOf[K comparable](hists map[K]*obs.Hist) map[K]Quantiles {
	out := make(map[K]Quantiles, len(hists))
	for k, h := range hists {
		s := h.Summary()
		out[k] = Quantiles{Count: int(s.Count), Min: s.Min, P50: s.P50, P95: s.P95, P99: s.P99, Max: s.Max, Mean: s.Mean}
	}
	return out
}

// statsOf renders the fold as a Stats document.
func statsOf(classes map[string]classify.Class, ops []sim.OpRecord) Stats {
	perClass, perOp := foldLatencies(classes, ops)
	st := Stats{PerClass: make(map[string]Quantiles, len(perClass)), PerOp: perOp}
	for class, q := range perClass {
		st.PerClass[class.String()] = q
		st.Ops += q.Count
	}
	return st
}

// recorder accumulates completed operations, in completion order.
type recorder struct {
	mu       sync.Mutex
	recorded []sim.OpRecord
}

func (r *recorder) record(resp rtnet.Response) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recorded = append(r.recorded, sim.OpRecord{
		Proc: resp.Proc, SeqID: resp.Seq, Op: resp.Op, Arg: resp.Arg, Ret: resp.Ret,
		InvokeTime: resp.Invoke, RespondTime: resp.Respond,
	})
}

func (r *recorder) ops() []sim.OpRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]sim.OpRecord(nil), r.recorded...)
}
