package main

import (
	"time"

	"lintime/internal/obs"
)

// layerValues collects per-layer metrics with the sample count behind
// each.
type layerValues map[string]metricValue

func (l layerValues) set(name string, value float64, n int) {
	l[name] = metricValue{Value: value, N: n}
}

// Per-layer numbers of one live pass: what the pass's own samples, the
// deployment's metric registries and its span collectors say about each
// layer.

func sumCounter(s obs.Snapshot, base string) int64 {
	var sum int64
	for name, v := range s.Counters {
		if b, _ := obs.SplitName(name); b == base {
			sum += v
		}
	}
	return sum
}

// lateShare is the share of a latency histogram's samples above limit.
// The histogram exposes quantiles only, so the share is found by bisecting
// on the quantile.
func lateShare(h *obs.Hist, limit int64) (late, total float64) {
	total = float64(h.Count())
	if total == 0 || h.Max() <= limit {
		return 0, total
	}
	lo, hi := 0.0, 1.0 // Quantile(lo) ≤ limit < Quantile(hi)
	for i := 0; i < 40; i++ {
		if mid := (lo + hi) / 2; h.Quantile(mid) <= limit {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (1 - lo) * total, total
}

func (p *passResult) layers(out layerValues) {
	count := len(p.samples)
	n := float64(count)
	tickUS := float64(p.dep.tick) / 1e3
	serviceUS := func(s sample) float64 { return float64(s.lat) * tickUS }

	// serve
	wait := mapSamples(p.samples, func(s sample) float64 { return clientUS(s) - serviceUS(s) })
	out.set("serve.queue_wait_p50_us", quantile(wait, 0.50), count)
	out.set("serve.queue_wait_p99_us", quantile(wait, 0.99), count)
	var service float64
	perShard := map[int32]float64{}
	half := int64(p.win.length / 2)
	var pre, post float64
	var gap, last int64
	for _, s := range p.samples {
		service += serviceUS(s) / 1e6
		perShard[s.shard]++
		if s.done < half {
			pre++
		} else {
			post++
		}
		gap = max(gap, s.done-last)
		last = s.done
	}
	gap = max(gap, int64(p.win.length)-last)
	out.set("serve.slot_occupancy", service/p.slotSeconds, count)
	var busiest float64
	for _, ops := range perShard {
		busiest = max(busiest, ops)
	}
	out.set("serve.shard_imbalance", busiest/(n/float64(len(perShard))), count)
	out.set("serve.pre_crash_ops_per_s", pre/(p.windowSeconds()/2), count)
	out.set("serve.post_crash_ops_per_s", post/(p.windowSeconds()/2), count)
	out.set("serve.unavailable", float64(len(p.log.crashed)), len(p.log.crashed))
	out.set("serve.gap_max_ms", float64(gap)/1e6, count)
	out.set("serve.drain_ms", p.drainMS, count)
	if p.dep.wire != nil {
		out.set("serve.wire_bytes_per_op", float64(p.wireBytes)/n, count)
		out.set("serve.wire_frames_per_op", float64(p.wireCalls)/n, count)
	}

	// rtnet, from the registries' deltas over the window
	delta := func(base string) float64 { return float64(sumCounter(p.snap1, base) - sumCounter(p.snap0, base)) }
	out.set("rtnet.msgs_per_op", delta("rtnet_messages_delivered_total")/n, count)
	out.set("rtnet.timer_fires_per_op", delta("rtnet_timer_fires_total")/n, count)
	out.set("rtnet.overflows", float64(sumCounter(p.snap1, "rtnet_inbox_overflows_total")), count)
	var batches, batched, inboxMax, delayP99 float64
	for name, h := range p.snap1.Hists {
		switch base, _ := obs.SplitName(name); base {
		case "serve_batch_size":
			h0 := p.snap0.Hists[name]
			batches += float64(h.Count - h0.Count)
			batched += float64(h.Sum - h0.Sum)
		case "rtnet_message_latency_ticks":
			delayP99 = max(delayP99, float64(h.P99))
		}
	}
	for name, v := range p.snap1.Gauges {
		if base, _ := obs.SplitName(name); base == "rtnet_inbox_depth_max" {
			inboxMax = max(inboxMax, float64(v))
		}
	}
	out.set("rtnet.batch_size_mean", batched/max(batches, 1), int(batches))
	out.set("rtnet.inbox_depth_max", inboxMax, count)
	out.set("rtnet.msg_delay_p99_ticks", delayP99, count)
	out.set("rtnet.late_delivery_share", p.late/max(p.delivered, 1), int(p.delivered))

	// the attribution means the serving layer streamed from its collectors
	type key struct{ class, term string }
	sums, counts := map[key]float64{}, map[key]float64{}
	for name, h := range p.snap1.Hists {
		if base, _ := obs.SplitName(name); base == "trace_term_ticks" {
			k := key{obs.Label(name, "class"), obs.Label(name, "term")}
			sums[k] += float64(h.Sum)
			counts[k] += float64(h.Count)
		}
	}
	for _, class := range termClasses {
		for _, term := range termNames {
			k := key{class, term}
			out.set(termMetric(class, term), sums[k]/max(counts[k], 1), int(counts[k]))
		}
	}
	var dropped int64
	for _, c := range p.dep.colls {
		dropped += c.Dropped()
	}
	out.set("obs.dropped_trees", float64(dropped), count)

	// self time of the benchmark's own spans: each span minus the child
	// it encloses
	var client, inner float64
	for _, s := range p.samples {
		client += float64((s.done-s.start)-(s.callEnd-s.callStart)) / 1e3
		inner += float64(s.callEnd-s.callStart)/1e3 - serviceUS(s)
	}
	out.set("span.client_call_self_us", client/n, count)
	if p.dep.wire != nil {
		out.set("span.wire_self_us", inner/n, count)
		out.set("span.router_callkey_self_us", 0, 0)
	} else {
		out.set("span.wire_self_us", 0, 0)
		out.set("span.router_callkey_self_us", inner/n, count)
	}
	out.set("span.cluster_service_self_us", service*1e6/n, count)

	// generator and process
	lateP99, _ := p.lateP99()
	var lateMax float64
	for _, l := range p.log.lateness {
		lateMax = max(lateMax, l.us)
	}
	out.set("gen.late_p99_us", lateP99, len(p.log.lateness))
	out.set("gen.late_max_us", lateMax, len(p.log.lateness))
	out.set("gen.offered_per_s", float64(p.log.issued)/p.windowSeconds(), p.log.issued)
	out.set("proc.gc_pause_total_ms", float64(p.use1.gcPause-p.use0.gcPause)/float64(time.Millisecond), count)
}

func termMetric(class, term string) string { return "term." + class + "." + term + "_ticks" }
