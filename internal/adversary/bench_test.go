package adversary

import (
	"testing"

	"lintime/internal/adt"
	"lintime/internal/simtime"
)

// BenchmarkFuzzCampaign measures adversarial-schedule throughput: one
// 128-schedule campaign (two batches) against the corrected algorithm,
// sequentially, so ns/op divided by 128 is the per-schedule cost and
// schedules/sec is reported as a custom metric.
func BenchmarkFuzzCampaign(b *testing.B) {
	p := simtime.DefaultParams(3)
	dt, err := adt.Lookup("queue")
	if err != nil {
		b.Fatal(err)
	}
	const budget = 128
	var rep *Report
	for i := 0; i < b.N; i++ {
		rep, err = Fuzz(Options{Params: p, DT: dt, Seed: 1, Budget: budget, Parallel: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Violations) != 0 {
			b.Fatal("correct algorithm flagged")
		}
	}
	b.ReportMetric(float64(budget)*float64(b.N)/b.Elapsed().Seconds(), "schedules/sec")
}

// BenchmarkRunnerRun measures one schedule execution end to end (engine
// run + admissibility + linearizability check), the unit of work every
// strategy pays per candidate.
func BenchmarkRunnerRun(b *testing.B) { benchRunnerRun(b, Target{}) }

// BenchmarkRunnerRunMutant is BenchmarkRunnerRun against a seeded mutant:
// the target is resolved once per Runner, so it costs the same.
func BenchmarkRunnerRunMutant(b *testing.B) { benchRunnerRun(b, Target{Mutant: "exec-no-eps"}) }

func benchRunnerRun(b *testing.B, target Target) {
	p := simtime.DefaultParams(3)
	dt, err := adt.Lookup("queue")
	if err != nil {
		b.Fatal(err)
	}
	r := &Runner{Params: p, DT: dt, Target: target}
	cand := randomCandidate(p, opsFor(dt), 1, "bench", 0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(cand.sched); err != nil {
			b.Fatal(err)
		}
	}
}
