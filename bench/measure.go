package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"lintime/internal/obs"
)

// One measured pass over a live deployment, and the metrics computed from
// it.

// runConfig is one benchmark run as the command line describes it.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration // measured window (--seconds)
	warm     time.Duration // unmeasured load before it
	setups   int           // how many times set-up is timed
	traced   bool
	quick    bool
	traceOut string // where a traced run writes its Chrome trace
}

type passResult struct {
	dep       *deployment
	openLoop  bool
	setups    []float64 // seconds, one per timed set-up
	win       window
	log       *liveLog
	samples   []sample // completed inside the window, by completion time
	use0      usage
	use1      usage
	snap0     obs.Snapshot
	snap1     obs.Snapshot
	wireBytes int64
	wireCalls int64
	// slotSeconds integrates live slots over the window: slots × window on
	// a healthy run, less after a crash.
	slotSeconds float64
	drainMS     float64
	checkS      float64
	badOps      int
	checkErr    error
	// late counts the deliveries the clusters observed later than d ticks,
	// of delivered, and maxDelay is the longest one, over the deployment's
	// whole life (the check covers the same span).
	late, delivered float64
	maxDelay        int64
	// discarded says why each earlier attempt at this pass was thrown away.
	discarded []string
}

// passAttempts is how many times a pass is measured before a disturbed one
// is reported as it is. Three attempts of the longest pass and its check
// stay well inside the three minutes a run may take.
const passAttempts = 3

// livePass measures one pass, again when the host disturbed it: see
// disturbed.
func livePass(cfg runConfig, length time.Duration, traced bool) (*passResult, error) {
	var discarded []string
	for {
		p, err := measurePass(cfg, length, traced)
		if err != nil {
			return nil, err
		}
		p.discarded = discarded
		why := p.disturbed(cfg)
		if why == "" || len(discarded) == passAttempts-1 {
			return p, nil
		}
		discarded = append(discarded, why)
	}
}

// disturbed says why a pass measured the host and not the program, or ""
// when it stands. Algorithm 1 promises linearizability only while every
// message arrives within d; when the clusters themselves saw a delivery at
// or beyond that edge (both instants are floored to ticks, which hides up
// to one) the host broke the model's premise, and a history that then fails
// the check convicts the host, not the program. A failed check with every
// delivery on time stands, and so does a quorum history, which no delay
// excuses. The open loop's own validity conditions (generator lateness,
// backlog, refusals) are about the host by definition.
func (p *passResult) disturbed(cfg runConfig) string {
	if why := p.hostFaults(cfg); len(why) > 0 {
		return strings.Join(why, "; ")
	}
	if p.checkErr != nil && p.badOps > 0 && cfg.workload != wlQuorumCrash && p.maxDelay >= modelD {
		return fmt.Sprintf("%v after the host delayed %.0f of %.0f deliveries beyond d=%d ticks (longest %d): outside Algorithm 1's model",
			p.checkErr, p.late, p.delivered, modelD, p.maxDelay)
	}
	return ""
}

// deploy builds the workload's deployment and completes its first
// operations.
func deploy(cfg runConfig, traced bool) (*deployment, error) {
	var (
		d     *deployment
		err   error
		first []request
	)
	switch cfg.workload {
	case wlAlg1Closed, wlAlg1OpenTCP:
		conns := 0
		if cfg.workload == wlAlg1OpenTCP {
			conns = gomaxprocs()
		}
		if d, err = deployAlg1(cfg.seed, alg1Tick, conns > 0, traced, conns); err == nil {
			first = firstAlg1Requests(d)
		}
	case wlQuorumCrash:
		d, err = deployQuorum(cfg.seed, quorumTick, traced)
		first = []request{{op: "read"}}
	default:
		err = fmt.Errorf("bench: %q is not a live workload", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	if err := d.firstOps(first); err != nil {
		_ = d.drain()
		return nil, err
	}
	return d, nil
}

// measurePass sets the deployment up (timing it cfg.setups times and keeping
// the last), drives the workload's generator over one window, drains, and
// runs the correctness check.
func measurePass(cfg runConfig, length time.Duration, traced bool) (*passResult, error) {
	p := &passResult{log: &liveLog{}, openLoop: cfg.workload == wlAlg1OpenTCP}
	for i := 0; i < cfg.setups; i++ {
		if p.dep != nil {
			if err := p.dep.drain(); err != nil {
				return nil, fmt.Errorf("draining set-up %d: %w", i, err)
			}
		}
		begin := time.Now()
		d, err := deploy(cfg, traced)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(begin).Seconds())
		p.dep = d
	}
	d := p.dep
	streams, err := clientStreams(cfg.workload, cfg.seed)
	if err != nil {
		_ = d.drain()
		return nil, err
	}

	p.win = newWindow(cfg.warm, length)
	generated := make(chan struct{})
	go func() {
		defer close(generated)
		switch cfg.workload {
		case wlAlg1Closed:
			runClosed(p.win, streams, closedPipeline, d.target, p.log)
		case wlQuorumCrash:
			runClosed(p.win, streams, 1, d.target, p.log)
		case wlAlg1OpenTCP:
			arrivals := poissonArrivals(cfg.seed, arrivalsID, openRate, cfg.warm+length)
			runOpen(p.win, arrivals, streams[0], openInflightCap, d.target, p.log)
		}
	}()

	time.Sleep(time.Until(p.win.t0))
	p.snap0 = obs.TakeSnapshot(d.regs...)
	wire0b, wire0c := d.wireCounts()
	p.use0 = readUsage()
	live := d.slots
	if d.crash != nil {
		mid := p.win.t0.Add(length / 2)
		time.Sleep(time.Until(mid))
		crashedAt := time.Now()
		after := d.crash()
		p.slotSeconds = float64(live)*crashedAt.Sub(p.win.t0).Seconds() +
			float64(after)*p.win.end().Sub(crashedAt).Seconds()
	} else {
		p.slotSeconds = float64(live) * length.Seconds()
	}
	time.Sleep(time.Until(p.win.end()))
	p.use1 = readUsage()
	wire1b, wire1c := d.wireCounts()
	p.wireBytes, p.wireCalls = wire1b-wire0b, wire1c-wire0c
	p.snap1 = obs.TakeSnapshot(d.regs...)
	<-generated

	begin := time.Now()
	if err := d.drain(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	p.drainMS = float64(time.Since(begin)) / 1e6
	for _, reg := range d.regs {
		for name := range reg.Snapshot().Hists {
			if base, _ := obs.SplitName(name); base == "rtnet_message_latency_ticks" {
				h := reg.Hist(name, 0)
				l, t := lateShare(h, modelD)
				p.late, p.delivered = p.late+l, p.delivered+t
				p.maxDelay = max(p.maxDelay, h.Max())
			}
		}
	}
	// One timing of a check that takes milliseconds moves by a quarter with
	// the scheduler and the collector, so where its cost is reported (a
	// traced run's lincheck.check_s) a cheap check is repeated for up to half
	// a second and the median taken; the verdict is the first one's.
	repeat := cfg.traced && !cfg.quick
	var checks []float64
	for spent := 0.0; len(checks) == 0 || (repeat && spent < 0.5 && len(checks) < 15); {
		begin = time.Now()
		bad, err := d.check(p.log)
		checks = append(checks, time.Since(begin).Seconds())
		spent += checks[len(checks)-1]
		if len(checks) == 1 {
			p.badOps, p.checkErr = bad, err
		}
	}
	p.checkS = median(checks)

	for _, s := range p.log.samples {
		if p.win.contains(s.done) {
			p.samples = append(p.samples, s)
		}
	}
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].done < p.samples[j].done })
	if len(p.samples) == 0 {
		return nil, fmt.Errorf("bench: no operation completed inside the window (first error: %v)", p.log.firstErr)
	}
	return p, nil
}

func (d *deployment) wireCounts() (bytes, calls int64) {
	if d.wire == nil {
		return 0, 0
	}
	return d.wire.bytes.Load(), d.wire.calls.Load()
}

func (p *passResult) windowSeconds() float64 { return p.win.length.Seconds() }

func (p *passResult) opsPerS() float64 { return float64(len(p.samples)) / p.windowSeconds() }

func (p *passResult) cpuPerOpUS() float64 {
	return float64(p.use1.cpu-p.use0.cpu) / 1e3 / float64(len(p.samples))
}

func (p *passResult) allocsPerOp() float64 {
	return float64(p.use1.mallocs-p.use0.mallocs) / float64(len(p.samples))
}

// capacity is the model's ceiling in operations per second: live slots
// over the mean class bound of the completed mix.
func (p *passResult) capacity() float64 {
	var boundTicks float64
	for _, s := range p.samples {
		boundTicks += float64(s.bound)
	}
	meanBound := boundTicks / float64(len(p.samples)) * p.dep.tick.Seconds()
	return p.slotSeconds / p.windowSeconds() / meanBound
}

// e2eQuantile is a quantile of the latency a client observes, in µs. On
// the open loop that is reply minus due time. On a saturated closed loop
// reply minus send is the wait for a replica slot plus the service
// interval; the wait is in-flight ÷ ops_per_s by Little's law, says
// nothing ops_per_s does not, and its percentiles drift with the
// per-replica queues for seconds at a time (±10 % between runs), so there
// the metric is the service interval alone, on the client's scale —
// interpolated inside the tick like the bound ratio — and the wait is the
// per-layer serve.queue_wait_p50/p99_us.
func (p *passResult) e2eQuantile(ss []sample, q float64) float64 {
	if p.openLoop {
		return quantile(mapSamples(ss, clientUS), q)
	}
	return tickQuantile(ratios(ss), q) * float64(p.dep.tick) / 1e3
}

// clientUS is reply minus due (open loop) or send (closed loop) time.
func clientUS(s sample) float64 { return float64(s.done-s.start) / 1e3 }

// lateP99 is the generator's 99th-percentile lateness in µs: the median
// over the sub-windows, so one host stall cannot invalidate a run, and the
// whole-window value.
func (p *passResult) lateP99() (med, whole float64) {
	parts := make([][]float64, subWindows)
	var all []float64
	for _, l := range p.log.lateness {
		i := min(int(l.at*subWindows/int64(p.win.length)), subWindows-1)
		parts[i] = append(parts[i], l.us)
		all = append(all, l.us)
	}
	var p99s []float64
	for _, part := range parts {
		if len(part) > 0 {
			p99s = append(p99s, quantile(part, 0.99))
		}
	}
	return median(p99s), quantile(all, 0.99)
}

// metricValue is one reported number. N is the sample count behind it and
// Whole the whole-window value printed beside a median of sub-windows.
type metricValue struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	N     int      `json:"n,omitempty"`
	Whole *float64 `json:"whole,omitempty"`
}

// endToEnd computes the live workloads' end-to-end metrics. With windowed
// false (quorum-crash, whose window is non-stationary by design: five live
// slots before the crash, three after) every value is a whole-window one.
func (p *passResult) endToEnd(windowed bool) map[string]metricValue {
	n := len(p.samples)
	out := map[string]metricValue{}
	stat := func(name string, f func([]sample) float64) {
		whole := f(p.samples)
		v := metricValue{Value: whole, N: n}
		if windowed {
			v.Value = windowedMedian(p.samples, int64(p.win.length), f)
			v.Whole = &whole
		}
		out[name] = v
	}
	wholeRate := p.opsPerS()
	rate := metricValue{Value: wholeRate, N: n}
	if windowed {
		part := p.windowSeconds() / subWindows
		rate.Value = windowedMedian(p.samples, int64(p.win.length), func(ss []sample) float64 {
			return float64(len(ss)) / part
		})
		rate.Whole = &wholeRate
	}
	out["ops_per_s"] = rate
	stat("bound_ratio_p50", func(ss []sample) float64 { return ratioQuantile(ratios(ss), 0.50) })
	stat("bound_ratio_p99", func(ss []sample) float64 { return ratioQuantile(ratios(ss), 0.99) })
	stat("e2e_p50_us", func(ss []sample) float64 { return p.e2eQuantile(ss, 0.50) })
	stat("e2e_p99_us", func(ss []sample) float64 { return p.e2eQuantile(ss, 0.99) })
	out["efficiency"] = metricValue{Value: out["ops_per_s"].Value / p.capacity(), N: n}
	out["allocs_per_op"] = metricValue{Value: p.allocsPerOp(), N: n}
	out["setup_s"] = metricValue{Value: median(p.setups), N: len(p.setups)}
	return out
}

func ratios(ss []sample) []tickRatio {
	out := make([]tickRatio, len(ss))
	for i, s := range ss {
		out[i] = s.ratio()
	}
	return out
}

func mapSamples(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// hostFaults reports why an open-loop pass must not be trusted: the
// generator fell behind, the deployment did not keep up with the offered
// rate, or the in-flight cap refused arrivals.
func (p *passResult) hostFaults(cfg runConfig) []string {
	var why []string
	if cfg.quick {
		return nil // a smoke run's numbers mean nothing, so neither would this verdict
	}
	if cfg.workload == wlAlg1OpenTCP {
		if late, whole := p.lateP99(); late > float64(genLateLimit)/1e3 {
			why = append(why, fmt.Sprintf("generator lateness p99 %.0fus (whole window %.0fus) exceeds %v", late, whole, genLateLimit))
		}
		if done, offered := len(p.samples), p.log.issued; float64(done) < 0.99*float64(offered) {
			why = append(why, fmt.Sprintf("completed %d of %d offered operations (<99%%): growing backlog", done, offered))
		}
		if p.log.refused > 0 {
			why = append(why, fmt.Sprintf("%d arrivals refused at the in-flight cap of %d", p.log.refused, openInflightCap))
		}
	}
	return why
}

// validity is hostFaults plus the one condition measuring again cannot
// cure: a sub-window too small to support its 99th percentile.
func (p *passResult) validity(cfg runConfig) []string {
	why := p.hostFaults(cfg)
	if !cfg.quick && !cfg.traced && cfg.workload != wlQuorumCrash {
		// A 99th percentile needs ten samples beyond it in every sub-window.
		if perPart := len(p.samples) / subWindows; perPart < 1000 {
			why = append(why, fmt.Sprintf("%d operations per sub-window cannot support a 99th percentile", perPart))
		}
	}
	return why
}
