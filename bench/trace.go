package main

import (
	"os"
	"path/filepath"

	"lintime/internal/obs"
)

// The traced pass's span file. The benchmark records, from its own files,
// one span per layer boundary around its calls — client.call ⊃ wire (TCP)
// or router.callkey (in process) ⊃ cluster.service — and hangs the
// cluster's own causal span tree, where the collector still retains it,
// under cluster.service. All spans of one operation share its tree.

// traceOps bounds how many operations (the last ones of the window) the
// span file holds.
const traceOps = 2000

// spanTrees converts the window's last operations into span trees in
// microseconds from the start of the warm-up.
func (p *passResult) spanTrees() []*obs.Tree {
	samples := p.samples
	if len(samples) > traceOps {
		samples = samples[len(samples)-traceOps:]
	}
	tickUS := float64(p.dep.tick) / 1e3
	shift := int64(p.win.t0.Sub(p.win.genStart)) // keeps warm-up starts non-negative
	us := func(ns int64) int64 { return (ns + shift) / 1e3 }

	// A cluster's tick 0 is its own start instant, which the benchmark
	// cannot read; the latest possible value is the smallest reply time
	// minus respond tick over the cluster's operations.
	epoch := map[int32]float64{}
	for _, s := range p.log.samples {
		e := float64(us(s.callEnd)) - float64(s.respond)*tickUS
		if cur, ok := epoch[s.shard]; !ok || e < cur {
			epoch[s.shard] = e
		}
	}
	retained := map[int32]map[int64]*obs.Tree{}
	for shard, c := range p.dep.colls {
		byspan := map[int64]*obs.Tree{}
		for _, t := range c.Trees() {
			byspan[t.Span] = t
		}
		retained[int32(shard)] = byspan
	}
	inner := "router.callkey"
	if p.dep.wire != nil {
		inner = "wire"
	}
	trees := make([]*obs.Tree, 0, len(samples))
	for i, s := range samples {
		id := int64(i) * 4
		toUS := func(tick int64) int64 { return int64(epoch[s.shard] + float64(tick)*tickUS) }
		service := &obs.Tree{Span: id + 2, Parent: id + 1, Op: "cluster.service " + s.op, Proc: s.proc,
			Start: toUS(s.invoke), End: toUS(s.respond)}
		// Responses over TCP carry no invocation id, so only in-process
		// operations can be joined with the collector's tree.
		if t := retained[s.shard][s.seq]; t != nil && p.dep.wire == nil && t.End == s.respond {
			service.Children = []*obs.Tree{rescale(t, id+2, toUS)}
		}
		call := &obs.Tree{Span: id + 1, Parent: id, Op: inner, Proc: s.proc,
			Start: us(s.callStart), End: us(s.callEnd), Children: []*obs.Tree{service}}
		trees = append(trees, &obs.Tree{Span: id, Parent: -1, Op: "client.call " + s.op, Proc: s.proc,
			Start: us(s.start), End: us(s.done), Children: []*obs.Tree{call}})
	}
	return trees
}

// rescale copies a collector tree from cluster ticks into microseconds.
func rescale(t *obs.Tree, parent int64, toUS func(int64) int64) *obs.Tree {
	out := &obs.Tree{Span: t.Span, Parent: parent, Op: t.Op, Proc: t.Proc, Start: toUS(t.Start), End: toUS(t.End)}
	for _, ev := range t.Events {
		ev.Time = toUS(ev.Time)
		if ev.Sent != 0 {
			ev.Sent = toUS(ev.Sent)
		}
		out.Events = append(out.Events, ev)
	}
	for _, c := range t.Children {
		out.Children = append(out.Children, rescale(c, t.Span, toUS))
	}
	return out
}

func writeTrace(path string, trees []*obs.Tree) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, trees); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
