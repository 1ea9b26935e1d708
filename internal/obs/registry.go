package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry is a named-metric namespace. Names follow the Prometheus
// convention and may carry a label set inline:
//
//	serve_ops_total
//	serve_class_latency_ticks{class="AOP"}
//
// Instruments are get-or-create: the first call for a name fixes its kind
// and later calls return the same instrument (a mismatched kind panics —
// that is a programming error, not an operational condition). Hot paths
// fetch instruments once at construction and hold the pointer; the
// registry lock is only taken at creation and snapshot time.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	maxes    map[string]*Max
	hists    map[string]*Hist
	funcs    map[string]func() int64
}

// Default is the process-wide registry. Package-level instruments (the
// harness run counter, the adversary campaign counters) live here;
// per-server metrics get their own registry so concurrent servers in one
// process never share instruments.
var Default = NewRegistry()

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		maxes:    map[string]*Max{},
		hists:    map[string]*Hist{},
		funcs:    map[string]func() int64{},
	}
}

// WithLabel inserts one label pair into an instrument name, composing
// with labels the name already carries:
//
//	WithLabel("serve_calls_total", "shard", "2")
//	        → serve_calls_total{shard="2"}
//	WithLabel(`serve_latency_ticks{class="AOP"}`, "shard", "2")
//	        → serve_latency_ticks{shard="2",class="AOP"}
//
// The sharded serving layer uses it to give each shard's registry a
// disjoint namespace, so merging every shard into one /metrics endpoint
// never collides.
func WithLabel(name, key, value string) string {
	pair := fmt.Sprintf("%s=%q", key, value)
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i+1] + pair + "," + name[i+1:]
	}
	return name + "{" + pair + "}"
}

// checkKind panics when name is already registered under a different
// instrument kind.
func (r *Registry) checkKind(name, want string) {
	kinds := []struct {
		kind string
		ok   bool
	}{
		{"counter", r.counters[name] != nil},
		{"gauge", r.gauges[name] != nil},
		{"max", r.maxes[name] != nil},
		{"hist", r.hists[name] != nil},
		{"func", r.funcs[name] != nil},
	}
	for _, k := range kinds {
		if k.ok && k.kind != want {
			panic(fmt.Sprintf("obs: metric %q already registered as a %s (want %s)", name, k.kind, want))
		}
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkKind(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkKind(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Max returns the named high-water-mark gauge, creating it if needed.
func (r *Registry) Max(name string) *Max {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.maxes[name]; ok {
		return m
	}
	r.checkKind(name, "max")
	m := &Max{}
	r.maxes[name] = m
	return m
}

// Hist returns the named histogram, creating it with the given bucket
// limit if needed (limit ≤ 0 selects DefaultHistLimit; the limit of an
// existing histogram is not changed).
func (r *Registry) Hist(name string, limit int) *Hist {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkKind(name, "hist")
	h := NewHist(limit)
	r.hists[name] = h
	return h
}

// GaugeFunc registers a callback sampled at snapshot time (queue depths,
// map sizes — values that already exist and should not be double-counted
// into a stored gauge). Re-registering a name replaces the callback.
func (r *Registry) GaugeFunc(name string, f func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, "func")
	r.funcs[name] = f
}

// Snapshot is a point-in-time reading of one or more registries, the
// JSON document served at /metrics.json and written to JSONL snapshot
// files. Maps marshal with sorted keys, so the encoding is byte-stable
// for fixed values.
type Snapshot struct {
	TimeMS   int64                  `json:"t_ms,omitempty"`
	Counters map[string]int64       `json:"counters,omitempty"`
	Gauges   map[string]int64       `json:"gauges,omitempty"`
	Hists    map[string]HistSummary `json:"hists,omitempty"`
}

// Snapshot reads every instrument. Gauge callbacks run while the registry
// lock is held; they must not re-enter the registry.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]HistSummary{},
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, m := range r.maxes {
		snap.Gauges[name] = m.Value()
	}
	for name, f := range r.funcs {
		snap.Gauges[name] = f()
	}
	for name, h := range r.hists {
		snap.Hists[name] = h.Summary()
	}
	return snap
}

// TakeSnapshot merges the snapshots of several registries (later
// registries win on a name collision; callers keep namespaces disjoint).
func TakeSnapshot(regs ...*Registry) Snapshot {
	merged := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]HistSummary{},
	}
	for _, r := range regs {
		if r == nil {
			continue
		}
		s := r.Snapshot()
		for k, v := range s.Counters {
			merged.Counters[k] = v
		}
		for k, v := range s.Gauges {
			merged.Gauges[k] = v
		}
		for k, v := range s.Hists {
			merged.Hists[k] = v
		}
	}
	return merged
}

// SplitName separates an inline label set from a metric name:
// `lat{class="AOP"}` → ("lat", `class="AOP"`). Names without labels
// return an empty label string.
func SplitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// Label extracts one label value from a metric name with inline labels,
// or "" when absent: Label(`lat{class="AOP"}`, "class") → "AOP".
func Label(name, key string) string {
	_, labels := SplitName(name)
	for _, part := range strings.Split(labels, ",") {
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			continue
		}
		if strings.TrimSpace(part[:eq]) != key {
			continue
		}
		v := strings.TrimSpace(part[eq+1:])
		return strings.Trim(v, `"`)
	}
	return ""
}

// sortedKeys returns the sorted key set of any of the snapshot maps.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
