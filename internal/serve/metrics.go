package serve

import (
	"fmt"

	"lintime/internal/classify"
	"lintime/internal/obs"
	"lintime/internal/rtnet"
	"lintime/internal/sim"
)

// serveMetrics is a shard's instrument set. Every shard owns a private
// registry (servers in one process — e.g. concurrent tests — must not
// share instruments); the router's HTTP handler merges it with its own
// and obs.Default, where the harness and fuzzer publish.
type serveMetrics struct {
	calls    *obs.Counter
	errors   *obs.Counter
	inflight *obs.Gauge
	// drainState tracks shutdown progress: 0 serving, 1 draining,
	// 2 drained.
	drainState *obs.Gauge
	perClass   map[classify.Class]*obs.Hist
	// terms[class][term] receives the per-term latency attribution of
	// every completed operation when a collector is installed
	// (trace_term_ticks{class=...,term=...}); nil maps when tracing is off
	// keep /metrics output unchanged.
	terms map[classify.Class][]*obs.Hist
}

// latency-histogram classes instrumented up front: one series per class
// keeps /metrics stable from the first scrape instead of materializing
// series as traffic arrives.
var metricClasses = []classify.Class{
	classify.PureAccessor, classify.PureMutator, classify.Mixed,
}

// wireMetrics builds the server's registry: per-class latency summaries
// with their Algorithm 1 formula bounds alongside, call/in-flight/drain
// accounting, the rtnet substrate instruments, and live per-process
// inbox gauges. Called from New, before Start.
func (s *Server) wireMetrics() {
	reg := obs.NewRegistry()
	s.reg = reg

	// Every shard's registry is merged into one endpoint; at M > 1 the
	// shard label keeps the namespaces disjoint. The empty label (M = 1)
	// preserves the historical metric names exactly.
	name := func(n string) string { return n }
	if s.cfg.ShardLabel != "" {
		name = func(n string) string { return obs.WithLabel(n, "shard", s.cfg.ShardLabel) }
	}

	p := s.cfg.Params
	limit := 4 * int(p.D+p.Epsilon)
	if limit < 16 {
		limit = 16
	}
	m := &serveMetrics{
		calls:      reg.Counter(name("serve_calls_total")),
		errors:     reg.Counter(name("serve_call_errors_total")),
		inflight:   reg.Gauge(name("serve_inflight_ops")),
		drainState: reg.Gauge(name("serve_drain_state")),
		perClass:   map[classify.Class]*obs.Hist{},
	}
	budget := JitterBudget(s.cfg.Tick)
	for _, class := range metricClasses {
		label := fmt.Sprintf("{class=%q}", class.String())
		m.perClass[class] = reg.Hist(name("serve_latency_ticks"+label), limit)
		// The paper's worst-case bound and the SLO line (bound + jitter
		// budget) emit as gauges so a scraper — `lintime stat` — can
		// verdict p99 against them without knowing the model parameters.
		reg.Gauge(name("serve_latency_formula_ticks" + label)).Set(int64(s.Formula(class)))
		reg.Gauge(name("serve_latency_slo_ticks" + label)).Set(int64(s.Formula(class) + budget))
	}
	s.obsm = m

	var rtLabels []string
	if s.cfg.ShardLabel != "" {
		rtLabels = []string{"shard", s.cfg.ShardLabel}
	}
	s.cluster.SetMetrics(rtnet.NewMetrics(reg, p, rtLabels...))
	reg.GaugeFunc(name("rtnet_inbox_overflow_last_proc"), func() int64 {
		return int64(s.cluster.LastOverflowProc())
	})
	for i := 0; i < p.N; i++ {
		proc := sim.ProcID(i)
		reg.GaugeFunc(name(fmt.Sprintf("rtnet_inbox_depth{proc=\"%d\"}", i)), func() int64 {
			return int64(s.cluster.InboxLen(proc))
		})
	}
}

// observe streams one completed operation into the live /metrics
// histograms. Stats and the load summaries do not read them: they fold
// the recorder's operation list, which is exact at any latency.
func (m *serveMetrics) observe(class classify.Class, latencyTicks int64) {
	h := m.perClass[class]
	if h == nil {
		// Classes outside the instrumented set fold into Mixed.
		h = m.perClass[classify.Mixed]
	}
	h.Add(latencyTicks)
}

// observeTerms streams one operation's latency attribution into the
// per-class term histograms.
func (m *serveMetrics) observeTerms(class classify.Class, a obs.Attribution) {
	hs := m.terms[class]
	if hs == nil {
		hs = m.terms[classify.Mixed]
	}
	if hs == nil {
		return
	}
	for term, v := range a {
		// skew_adjust is signed; histograms are non-negative. Clamp for
		// the metric view only — the exact decomposition lives in the
		// collector's trees.
		if v < 0 {
			v = 0
		}
		hs[term].Add(v)
	}
}

// Registry returns the server's private metric registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// SetTracer installs the span sink on the underlying cluster (nil turns
// tracing off). Must be called before Start. With a collector installed
// every completed operation's per-term latency decomposition streams
// into trace_term_ticks{class=...,term=...} histograms on the server's
// registry, and TraceCollector exposes the retained causal trees (the
// flight recorder).
func (s *Server) SetTracer(c *obs.Collector) {
	s.cluster.SetTracer(c)
	s.traceColl = c
	if c == nil {
		return
	}
	p := s.cfg.Params
	s.attrP = obs.AttrParams{D: int64(p.D), U: int64(p.U), Epsilon: int64(p.Epsilon), X: int64(p.X)}
	name := func(n string) string { return n }
	if s.cfg.ShardLabel != "" {
		name = func(n string) string { return obs.WithLabel(n, "shard", s.cfg.ShardLabel) }
	}
	limit := 4 * int(p.D+p.Epsilon)
	if limit < 16 {
		limit = 16
	}
	s.obsm.terms = map[classify.Class][]*obs.Hist{}
	for _, class := range metricClasses {
		hs := make([]*obs.Hist, obs.NumTerms)
		for term := obs.Term(0); term < obs.NumTerms; term++ {
			n := obs.WithLabel("trace_term_ticks", "class", class.String())
			n = obs.WithLabel(n, "term", term.String())
			hs[term] = s.reg.Hist(name(n), limit)
		}
		s.obsm.terms[class] = hs
	}
}

// TraceCollector returns the installed collector, or nil when tracing is
// off.
func (s *Server) TraceCollector() *obs.Collector { return s.traceColl }
