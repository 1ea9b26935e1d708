package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"text/tabwriter"
	"time"

	"lintime/internal/obs"
)

// statClasses fixes the per-class table row order.
var statClasses = []string{"AOP", "MOP", "OOP"}

// fetchSnapshot pulls /metrics.json from a lintime observability endpoint.
func fetchSnapshot(client *http.Client, base string) (obs.Snapshot, error) {
	resp, err := client.Get(base + "/metrics.json")
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return obs.Snapshot{}, fmt.Errorf("stat: %s returned %s", base, resp.Status)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return obs.Snapshot{}, err
	}
	return snap, nil
}

// snapshotShards returns the sorted shard labels carried by the
// serving-layer latency series. A single-object endpoint exports
// unlabeled series and yields [""]; a shard router's merged endpoint
// yields the shard indices.
func snapshotShards(snap obs.Snapshot) []string {
	seen := map[string]bool{}
	for name := range snap.Hists {
		if base, _ := obs.SplitName(name); base == "serve_latency_ticks" {
			seen[obs.Label(name, "shard")] = true
		}
	}
	return sortedLabels(seen)
}

func sortedLabels(seen map[string]bool) []string {
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// classRow extracts one (shard, class) latency summary and bounds from a
// snapshot; shard "" addresses the unlabeled single-object series. ok is
// false when the endpoint exports no such series.
func classRow(snap obs.Snapshot, shard, class string) (h obs.HistSummary, formula, slo int64, ok bool) {
	series := func(base string) string {
		if shard == "" {
			return fmt.Sprintf("%s{class=%q}", base, class)
		}
		// obs.WithLabel prepends, so shard-labeled series read
		// name{shard="i",class="C"}.
		return fmt.Sprintf("%s{shard=%q,class=%q}", base, shard, class)
	}
	h, ok = snap.Hists[series("serve_latency_ticks")]
	if !ok {
		return h, 0, 0, false
	}
	formula = snap.Gauges[series("serve_latency_formula_ticks")]
	slo = snap.Gauges[series("serve_latency_slo_ticks")]
	return h, formula, slo, true
}

// sloViolated reports whether any class with traffic — on any shard —
// has p99 above its SLO line (formula + jitter budget).
func sloViolated(snap obs.Snapshot) bool {
	for _, shard := range snapshotShards(snap) {
		for _, class := range statClasses {
			if h, _, slo, ok := classRow(snap, shard, class); ok && h.Count > 0 && h.P99 > slo {
				return true
			}
		}
	}
	return false
}

// sumByBase totals a metric over its label variants: a single-object
// endpoint stores serve_calls_total unlabeled, a sharded endpoint stores
// one serve_calls_total{shard="i"} per shard; both sum correctly.
func sumByBase(m map[string]int64, base string) int64 {
	var total int64
	for name, v := range m {
		if b, _ := obs.SplitName(name); b == base {
			total += v
		}
	}
	return total
}

// maxByBase is sumByBase for high-water marks.
func maxByBase(m map[string]int64, base string) int64 {
	var max int64
	for name, v := range m {
		if b, _ := obs.SplitName(name); b == base && v > max {
			max = v
		}
	}
	return max
}

func drainStateName(v int64) string {
	switch v {
	case 1:
		return "draining"
	case 2:
		return "drained"
	default:
		return "serving"
	}
}

// renderStat writes one live status frame: serving-layer and substrate
// counters (with rates differentiated against the previous poll), then
// the per-class latency/SLO table the acceptance check reads.
func renderStat(w io.Writer, prev, cur obs.Snapshot, elapsed time.Duration) {
	// All serving/substrate totals fold label variants together, so one
	// frame shape covers single-object endpoints and shard routers.
	rate := func(name string) string {
		if elapsed <= 0 {
			return "-"
		}
		delta := sumByBase(cur.Counters, name) - sumByBase(prev.Counters, name)
		return fmt.Sprintf("%.1f/s", float64(delta)/elapsed.Seconds())
	}
	shards := snapshotShards(cur)
	sharded := len(shards) > 0 && shards[len(shards)-1] != ""
	shardNote := ""
	if sharded {
		shardNote = fmt.Sprintf("  shards %d", cur.Gauges["router_shards"])
	}
	fmt.Fprintf(w, "serve   calls %d (%s)  inflight %d  errors %d  state %s%s\n",
		sumByBase(cur.Counters, "serve_calls_total"), rate("serve_calls_total"),
		sumByBase(cur.Gauges, "serve_inflight_ops"), sumByBase(cur.Counters, "serve_call_errors_total"),
		drainStateName(maxByBase(cur.Gauges, "serve_drain_state")), shardNote)
	overflowNote := ""
	if sumByBase(cur.Counters, "rtnet_inbox_overflows_total") > 0 {
		overflowNote = fmt.Sprintf(" (last p%d)", maxByBase(cur.Gauges, "rtnet_inbox_overflow_last_proc"))
	}
	// Dispatch lateness: the worst shard's quantiles, since every cluster
	// has to keep its own u/2 scheduling margin.
	var lateP50, lateP99 int64
	for name, h := range cur.Hists {
		if b, _ := obs.SplitName(name); b == "rtnet_wake_late_us" {
			lateP50, lateP99 = max(lateP50, h.P50), max(lateP99, h.P99)
		}
	}
	fmt.Fprintf(w, "rtnet   delivered %d (%s)  timers %d  wake late p50 %dus p99 %dus  inbox max %d  overflows %d%s\n",
		sumByBase(cur.Counters, "rtnet_messages_delivered_total"), rate("rtnet_messages_delivered_total"),
		sumByBase(cur.Counters, "rtnet_timer_fires_total"), lateP50, lateP99,
		maxByBase(cur.Gauges, "rtnet_inbox_depth_max"),
		sumByBase(cur.Counters, "rtnet_inbox_overflows_total"), overflowNote)
	// Wire-protocol line: accepted TCP connections, folded across shards.
	// Only endpoints that have accepted a connection emit it.
	if conns := sumByBase(cur.Counters, "serve_connections_total"); conns > 0 {
		fmt.Fprintf(w, "wire    conns %d\n", conns)
	}
	phases := sumByBase(cur.Counters, "quorum_phase_total")
	crashes := sumByBase(cur.Counters, "crashes_injected")
	if phases > 0 || crashes > 0 {
		fmt.Fprintf(w, "quorum  phases %d (%s)  crashes %d  post-crash drops %d\n",
			phases, rate("quorum_phase_total"), crashes,
			sumByBase(cur.Counters, "rtnet_post_crash_drops_total"))
	}
	if runs := cur.Counters["harness_runs_total"]; runs > 0 {
		fmt.Fprintf(w, "harness runs %d (%s)\n", runs, rate("harness_runs_total"))
	}
	if scheds := cur.Counters["adversary_schedules_total"]; scheds > 0 {
		fmt.Fprintf(w, "fuzz    schedules %d (%s)  novelty %d (%.1f%%)  violations %d  kills %d\n",
			scheds, rate("adversary_schedules_total"),
			cur.Counters["adversary_novelty_hits_total"],
			100*float64(cur.Counters["adversary_novelty_hits_total"])/float64(scheds),
			cur.Counters["adversary_violations_total"],
			cur.Counters["adversary_mutant_kills_total"])
	}

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	if sharded {
		// One row per (shard, class): each shard may run its own X, so
		// each has its own formula and SLO line.
		fmt.Fprintln(tw, "\nshard\tclass\tcount\tp50\tp95\tp99\tmax\tformula\tslo(p99≤)\tverdict")
		for _, shard := range shards {
			for _, class := range statClasses {
				h, formula, slo, ok := classRow(cur, shard, class)
				if !ok {
					continue
				}
				fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
					shard, class, h.Count, h.P50, h.P95, h.P99, h.Max, formula, slo,
					classVerdict(h, slo))
			}
		}
	} else {
		fmt.Fprintln(tw, "\nclass\tcount\tp50\tp95\tp99\tmax\tformula\tslo(p99≤)\tverdict")
		for _, class := range statClasses {
			h, formula, slo, ok := classRow(cur, "", class)
			if !ok {
				continue
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
				class, h.Count, h.P50, h.P95, h.P99, h.Max, formula, slo,
				classVerdict(h, slo))
		}
	}
	tw.Flush()
	renderTermTable(w, cur, shards, sharded)
}

// renderTermTable appends the per-term latency-attribution table when
// the endpoint exports trace_term_ticks — i.e. the server runs with
// causal tracing on. One row per (shard, class, term) with traffic,
// terms in attribution order so the rows read as the decomposition of
// the class's latency.
func renderTermTable(w io.Writer, cur obs.Snapshot, shards []string, sharded bool) {
	type attrKey struct{ shard, class string }
	attr := map[attrKey]map[string]obs.HistSummary{}
	for name, h := range cur.Hists {
		if b, _ := obs.SplitName(name); b != "trace_term_ticks" {
			continue
		}
		k := attrKey{obs.Label(name, "shard"), obs.Label(name, "class")}
		if attr[k] == nil {
			attr[k] = map[string]obs.HistSummary{}
		}
		attr[k][obs.Label(name, "term")] = h
	}
	if len(attr) == 0 {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	if sharded {
		fmt.Fprintln(tw, "\nshard\tclass\tterm\tcount\tp50\tp99\tmax")
	} else {
		fmt.Fprintln(tw, "\nclass\tterm\tcount\tp50\tp99\tmax")
	}
	for _, shard := range shards {
		for _, class := range statClasses {
			terms := attr[attrKey{shard, class}]
			for term := obs.Term(0); term < obs.NumTerms; term++ {
				h, ok := terms[term.String()]
				if !ok || h.Count == 0 {
					continue
				}
				if sharded {
					fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\n",
						shard, class, term, h.Count, h.P50, h.P99, h.Max)
				} else {
					fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\n",
						class, term, h.Count, h.P50, h.P99, h.Max)
				}
			}
		}
	}
	tw.Flush()
}

func classVerdict(h obs.HistSummary, slo int64) string {
	switch {
	case h.Count == 0:
		return "-"
	case h.P99 > slo:
		return "VIOLATED"
	default:
		return "ok"
	}
}

func cmdStat(args []string) error {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9100", "observability endpoint to poll (host:port of -metrics-addr)")
	interval := fs.Duration("interval", time.Second, "poll interval")
	once := fs.Bool("once", false, "print a single frame and exit")
	requireSLO := fs.Bool("require-slo", false, "exit nonzero if any class's live p99 exceeds formula + jitter budget")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := "http://" + *addr
	client := &http.Client{Timeout: 5 * time.Second}

	cur, err := fetchSnapshot(client, base)
	if err != nil {
		return err
	}
	fmt.Printf("lintime stat: %s at %s\n\n", base, time.Now().Format(time.TimeOnly))
	renderStat(os.Stdout, obs.Snapshot{}, cur, 0)
	if *once {
		if *requireSLO && sloViolated(cur) {
			return fmt.Errorf("stat: latency SLO violated (a class's live p99 exceeds formula + jitter budget)")
		}
		return nil
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	prev := cur
	prevAt := time.Now()
	for {
		select {
		case <-sigCh:
			return nil
		case <-ticker.C:
			cur, err = fetchSnapshot(client, base)
			if err != nil {
				return err
			}
			now := time.Now()
			fmt.Printf("\nlintime stat: %s at %s\n\n", base, now.Format(time.TimeOnly))
			renderStat(os.Stdout, prev, cur, now.Sub(prevAt))
			if *requireSLO && sloViolated(cur) {
				return fmt.Errorf("stat: latency SLO violated (a class's live p99 exceeds formula + jitter budget)")
			}
			prev, prevAt = cur, now
		}
	}
}

// obsRun is a started observability stanza: stop shuts the endpoint
// down, flush writes the final -obs-out snapshot (the SIGINT flush path),
// colls are the installed flight-recorder collectors.
type obsRun struct {
	stop  func()
	flush func() error
	colls []*obs.Collector
}

// obsFlags registers -metrics-addr, -obs-out and -obs-interval and
// returns the one observability stanza of the long-running commands:
// when traceN > 0, install (nil = nothing to trace) places flight
// recorders, drawing one fresh collector retaining traceN trees per
// cluster from newColl — clusters number their spans independently; then
// the -metrics-addr endpoint (metrics, expvar, pprof) boots over h and
// the periodic -obs-out JSONL writer over regs.
func obsFlags(fs *flag.FlagSet) func(h http.Handler, regs []*obs.Registry, traceN int, install func(newColl func() *obs.Collector)) (obsRun, error) {
	addr := fs.String("metrics-addr", "", "serve /metrics, /metrics.json, /debug/vars and /debug/pprof/ on this address (empty = off)")
	out := fs.String("obs-out", "", "append periodic metric snapshots to this JSONL file (final snapshot on exit)")
	interval := fs.Duration("obs-interval", 0, "snapshot period for -obs-out (0 = final snapshot only)")
	return func(h http.Handler, regs []*obs.Registry, traceN int, install func(newColl func() *obs.Collector)) (obsRun, error) {
		run := obsRun{stop: func() {}, flush: func() error { return nil }}
		if traceN > 0 && install != nil {
			install(func() *obs.Collector {
				c := obs.NewCollector(traceN)
				run.colls = append(run.colls, c)
				return c
			})
		}
		if *addr != "" {
			srv := &http.Server{Addr: *addr, Handler: h}
			errCh := make(chan error, 1)
			go func() { errCh <- srv.ListenAndServe() }()
			// Surface immediate bind failures instead of dying silently later.
			select {
			case err := <-errCh:
				return obsRun{}, fmt.Errorf("metrics endpoint: %w", err)
			case <-time.After(50 * time.Millisecond):
			}
			fmt.Fprintf(os.Stderr, "lintime: observability endpoint on http://%s (try `lintime stat -addr %s`)\n", *addr, *addr)
			run.stop = func() { srv.Close() }
		}
		if *out != "" {
			sw, err := obs.NewSnapshotWriter(*out, *interval, regs...)
			if err != nil {
				run.stop()
				return obsRun{}, err
			}
			run.flush = sw.Close
		}
		return run, nil
	}
}
