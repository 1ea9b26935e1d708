package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"lintime/internal/harness"
	"lintime/internal/obs"
)

// cmdTrace runs a deterministic virtual-time workload with the causal
// collector installed and renders the result two ways: a per-term
// latency-attribution table (where did each tick of every operation's
// latency go?) on stdout, and — with -o — the complete causal trees as
// Chrome trace-event JSON, loadable in chrome://tracing or Perfetto.
//
// The attribution identity is checked on every tree: the six terms
// (x_wait, net_delay, batch_residency, queue, exec, skew_adjust) must
// sum exactly to the operation's measured latency, or the command
// fails. On the virtual-time engine the whole output is a byte-stable
// function of the flags, which the trace-smoke golden test pins.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	getTarget := backendFlags(fs, paramFlags(fs))
	network := fs.String("net", harness.NetUniform, "network (uniform, uniform-min, random, adversarial)")
	offsets := fs.String("offsets", harness.OffZero, "clock offsets (zero, spread, alternating, random)")
	ops := fs.Int("ops", 5, "operations per process")
	seed := fs.Int64("seed", 1, "workload seed")
	keep := fs.Int("keep", 256, "complete causal trees retained (flight-recorder capacity)")
	outFile := fs.String("o", "", "write the causal trees as Chrome trace-event JSON to this file (Perfetto/chrome://tracing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, backend, dt, err := getTarget()
	if err != nil {
		return err
	}
	coll := obs.NewCollector(*keep)
	if _, err := harness.Run(
		harness.Config{Params: p, TypeName: dt.Name(), Algorithm: backend.Name,
			Network: *network, Offsets: *offsets, Seed: *seed, Tracer: coll},
		harness.Workload{OpsPerProc: *ops, MaxGap: p.D / 2, Seed: *seed}); err != nil {
		return err
	}
	trees := coll.Trees()
	classes := harness.ClassesFor(dt)
	ap := obs.AttrParams{D: int64(p.D), U: int64(p.U), Epsilon: int64(p.Epsilon), X: int64(p.X)}

	// Per-(class, term) samples. In virtual time an operation's invoke
	// instant is its root span's start: the engine opens the span at
	// invoke dispatch.
	type seriesKey struct {
		class string
		term  obs.Term
	}
	samples := map[seriesKey][]int64{}
	attributed, exact := 0, 0
	for _, t := range trees {
		class := classes[t.Op].String()
		a, ok := coll.Attribute(t.Span, class, t.Start, ap)
		if !ok {
			continue
		}
		attributed++
		if a.Sum() == t.End-t.Start {
			exact++
		}
		for term := obs.Term(0); term < obs.NumTerms; term++ {
			k := seriesKey{class, term}
			samples[k] = append(samples[k], a[term])
		}
	}

	fmt.Printf("lintime trace: %s on %s (n=%d d=%v u=%v eps=%v X=%v, seed %d)\n",
		dt.Name(), backend.Name, p.N, p.D, p.U, p.Epsilon, p.X, *seed)
	fmt.Printf("%d causal trees retained, %d events dropped\n\n", len(trees), coll.Dropped())
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "class\tterm\tcount\tp50\tp99\tmin\tmax\ttotal")
	for _, class := range statClasses {
		for term := obs.Term(0); term < obs.NumTerms; term++ {
			vs := samples[seriesKey{class, term}]
			if len(vs) == 0 {
				continue
			}
			lo, hi, total := vs[0], vs[0], int64(0)
			for _, v := range vs {
				lo, hi = min(lo, v), max(hi, v)
				total += v
			}
			// skew_adjust is signed and obs.Hist is not: histogram each
			// sample's distance from the minimum, sized to hold them all.
			h := obs.NewHist(int(hi-lo) + 1)
			for _, v := range vs {
				h.Add(v - lo)
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
				class, term.String(), len(vs), lo+h.Quantile(0.50), lo+h.Quantile(0.99),
				lo, hi, total)
		}
	}
	tw.Flush()
	fmt.Printf("\nattribution identity: terms sum to end-to-end latency on %d/%d trees\n",
		exact, attributed)

	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, trees); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "lintime trace: chrome trace (%d trees) written to %s\n", len(trees), *outFile)
	}
	if exact != attributed {
		return fmt.Errorf("trace: %d of %d trees violate the attribution identity", attributed-exact, attributed)
	}
	return nil
}
