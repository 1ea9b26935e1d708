package bmc

import (
	"fmt"
	"io"

	"lintime/internal/adversary"
	"lintime/internal/harness"
	"lintime/internal/obs"
	"lintime/internal/simtime"
)

var killsTotal = obs.Default.Counter("bmc_mutant_kills_total")

// Report is the machine-readable result of one exhaustive sweep.
type Report struct {
	Target         string         `json:"target"`
	Params         simtime.Params `json:"params"`
	MaxOps         int            `json:"max_ops"`
	Plans          int            `json:"plans"`
	OffsetPatterns int            `json:"offset_patterns"`
	// CrashPlacements is the size of the crash axis; reported only when
	// non-trivial (quorum targets with n >= 3).
	CrashPlacements int     `json:"crash_placements,omitempty"`
	Drops           []int64 `json:"drops,omitempty"` // drop augmentation, if any
	Contexts        int     `json:"contexts"`
	TotalRuns       int     `json:"total_runs"`           // size of the space
	Runs            int     `json:"runs"`                 // runs executed (== TotalRuns unless stopped early or miscounted)
	Miscounted      int     `json:"miscounted,omitempty"` // runs that sent other than their plan's measured count; more widens the sweep
	Signatures      int     `json:"distinct_signatures"`
	Histories       int     `json:"distinct_histories"`
	OK              bool    `json:"ok"`
	Stopped         bool    `json:"stopped_early,omitempty"`

	ViolationsTotal int         `json:"violations_total"`
	Violations      []Violation `json:"violations,omitempty"` // first few, with schedules

	// The strong sweep. StrongExplored sums Tree.Ops() — the unified
	// operations of each swept context's prefix tree, not the search
	// states its check visited (the JSON name says so).
	StrongChecked    int               `json:"strong_contexts_checked,omitempty"`
	StrongExplored   int               `json:"strong_tree_ops,omitempty"`
	StrongViolations int               `json:"strong_violations,omitempty"`
	StrongExamples   []StrongViolation `json:"strong_examples,omitempty"`
}

// WriteReport renders a sweep report as deterministic plain text,
// including a space-time diagram for each stored violation.
func WriteReport(w io.Writer, r *adversary.Runner, rep *Report) error {
	fmt.Fprintf(w, "target      %s on %s (bounded model check)\n", rep.Target, r.DT.Name())
	fmt.Fprintf(w, "params      n=%d d=%v u=%v eps=%v X=%v\n",
		rep.Params.N, rep.Params.D, rep.Params.U, rep.Params.Epsilon, rep.Params.X)
	if rep.CrashPlacements > 1 {
		fmt.Fprintf(w, "space       %d plans x %d offset patterns x %d crash placements = %d contexts, %d runs (max %d ops, delays in {d-u, d})\n",
			rep.Plans, rep.OffsetPatterns, rep.CrashPlacements, rep.Contexts, rep.TotalRuns, rep.MaxOps)
	} else {
		fmt.Fprintf(w, "space       %d plans x %d offset patterns = %d contexts, %d runs (max %d ops, delays in {d-u, d})\n",
			rep.Plans, rep.OffsetPatterns, rep.Contexts, rep.TotalRuns, rep.MaxOps)
	}
	executed := fmt.Sprintf("%d", rep.Runs)
	if rep.Stopped {
		executed += " (stopped early)"
	}
	fmt.Fprintf(w, "executed    %s\n", executed)
	if rep.Miscounted > 0 {
		fmt.Fprintf(w, "miscounted  %d runs sent other than their plan's measured message count\n", rep.Miscounted)
	}
	fmt.Fprintf(w, "states      %d distinct event orderings, %d distinct histories\n", rep.Signatures, rep.Histories)
	fmt.Fprintf(w, "violations  %d\n", rep.ViolationsTotal)
	if rep.StrongChecked > 0 {
		fmt.Fprintf(w, "strong      %d contexts swept, %d without prefix-preserving linearization\n",
			rep.StrongChecked, rep.StrongViolations)
	}
	if rep.OK && rep.StrongViolations == 0 {
		fmt.Fprintf(w, "verdict     every enumerated schedule is linearizable, complete, and convergent\n")
	} else if rep.OK {
		fmt.Fprintf(w, "verdict     every enumerated schedule is linearizable, complete, and convergent;\n")
		fmt.Fprintf(w, "            %d contexts are linearizable in every future but not strongly linearizable\n", rep.StrongViolations)
	}
	for vi := range rep.Violations {
		v := &rep.Violations[vi]
		fmt.Fprintf(w, "\n--- violation %d: %s (context %d, delay code %d) ---\n",
			vi+1, v.Kind, v.Context, v.DelayCode)
		fmt.Fprint(w, v.Schedule.String())
		if err := adversary.WriteDiagram(w, r, v.Schedule); err != nil {
			return err
		}
	}
	return nil
}

// KillEntry is one row of the exhaustive kill matrix; the sweep attaches
// no witness.
type KillEntry = harness.KillEntry[struct{}]

// KillMatrix sweeps every seeded mutant of the target's backend (and the
// correct protocol as a control, first) over the same bounded space,
// stopping each sweep at the first violating chunk. A mutant that
// survives has no counterexample anywhere in the space — a far stronger
// statement than a fuzzing miss. A mutant that provably cannot die in the
// shared space runs its targeted certificate instead (quorumCertificates).
func KillMatrix(cfg Config) ([]KillEntry, error) {
	return harness.KillMatrix(cfg.Target.Algorithm, killsTotal, func(m harness.Mutant) (KillEntry, error) {
		if cert, ok := quorumCertificates[m.Name]; ok {
			return runQuorumCert(cfg, m.Name, cert)
		}
		c := cfg
		c.Target = adversary.Target{Algorithm: cfg.Target.Algorithm, Mutant: m.Name}
		c.StopEarly = true
		c.Strong = false
		rep, err := Verify(c)
		if err != nil {
			return KillEntry{}, err
		}
		if rep.OK {
			return KillEntry{Runs: rep.Runs}, nil
		}
		return KillEntry{Killed: true, Kind: rep.Violations[0].Kind, Runs: rep.Runs}, nil
	})
}

// quorumCert pins a targeted kill certificate: one context of a small
// enumerated space whose delay vectors contain a counterexample for a
// mutant that provably cannot die in the shared sweep. At n=2 every
// write quorum covers all replicas, so sub-majority reads always see the
// latest committed write, and two reads querying the same two replicas
// can never invert — those mutants need n=3, and skip-writeback
// additionally needs real message loss to keep the propagate phase away
// from the second reader. stale-tiebreak needs four operations (two
// tying writes plus one probe read per writer) — a uniform 4-op sweep is
// astronomically large, the single context is not.
type quorumCert struct {
	n      int
	maxOps int
	drops  []int64
	space  string // provenance label for the report row
	match  func(p simtime.Params, sched adversary.Schedule) bool
}

// certPlanIs matches one process's plan by operation names and gaps
// (arguments are fixed by slot position and carry no information here).
func certPlanIs(ops []adversary.PlannedOp, want ...adversary.PlannedOp) bool {
	if len(ops) != len(want) {
		return false
	}
	for i := range want {
		if ops[i].Op != want[i].Op || ops[i].Gap != want[i].Gap {
			return false
		}
	}
	return true
}

func certOp(name string, gap simtime.Duration) adversary.PlannedOp {
	return adversary.PlannedOp{Op: name, Gap: gap}
}

// quorumCertificates maps a quorum mutant's name to its targeted certificate.
var quorumCertificates = map[string]quorumCert{
	// A write commits at {writer, p1} while the propagate to the reader
	// is lost; the sub-majority read at the reader then answers from its
	// own stale replica strictly after the write responded.
	"sub-majority-read": {
		n: 3, maxOps: 2, drops: []int64{4},
		space: "n=3 targeted context, drop ordinal 4",
		match: func(p simtime.Params, sched adversary.Schedule) bool {
			late := 2*p.MinDelay() + p.D
			return len(sched.Crashes) == 0 &&
				certPlanIs(sched.Plans[0], certOp("read", late)) &&
				len(sched.Plans[1]) == 0 &&
				certPlanIs(sched.Plans[2], certOp("write", 0))
		},
	},
	// The whole propagate phase is lost, so only the writer holds the new
	// tag; an early read learns it from the writer's ack and — without
	// the write-back — leaves both other replicas stale, so a later read
	// completing against them inverts (new-old read inversion).
	"skip-writeback": {
		n: 3, maxOps: 3, drops: []int64{5, 6},
		space: "n=3 targeted context, drop ordinals 5,6",
		match: func(p simtime.Params, sched adversary.Schedule) bool {
			mid := p.MinDelay() / 2
			late := 2*p.MinDelay() + p.D
			return len(sched.Crashes) == 0 &&
				certPlanIs(sched.Plans[0], certOp("read", mid)) &&
				certPlanIs(sched.Plans[1], certOp("read", late)) &&
				certPlanIs(sched.Plans[2], certOp("write", 0))
		},
	},
	// Two concurrent writes draw the same timestamp and the TS-only order
	// keeps each incumbent: the replicas diverge silently, and one probe
	// read per writer observes both divergent values after both writes
	// completed — unlinearizable in any order.
	"stale-tiebreak": {
		n: 2, maxOps: 4,
		space: "n=2 4-op targeted context",
		match: func(p simtime.Params, sched adversary.Schedule) bool {
			return len(sched.Crashes) == 0 &&
				certPlanIs(sched.Plans[0], certOp("write", 0), certOp("read", 0)) &&
				certPlanIs(sched.Plans[1], certOp("write", 0), certOp("read", probeGap(p)))
		},
	},
}

// runQuorumCert exhausts the delay vectors of one certificate context.
// Codes run in descending order — the minimum-delay interleavings, where
// quorum counterexamples concentrate, come first — and stop at the first
// violation.
func runQuorumCert(cfg Config, mutant string, cert quorumCert) (KillEntry, error) {
	p := simtime.Params{N: cert.n, D: cfg.Params.D, U: cfg.Params.U}
	c := Config{
		Params: p, DT: cfg.DT,
		Target: adversary.Target{Algorithm: cfg.Target.Algorithm, Mutant: mutant},
		MaxOps: cert.maxOps,
		Drops:  cert.drops,
	}
	sp, err := NewSpace(c)
	if err != nil {
		return KillEntry{}, err
	}
	ctx := sp.FindContext(func(sched adversary.Schedule) bool { return cert.match(p, sched) })
	if ctx < 0 {
		return KillEntry{}, fmt.Errorf("bmc: certificate context for mutant %q is not in its enumerated space", mutant)
	}
	base, msgs := sp.context(ctx)
	e := KillEntry{Space: cert.space}
	for code := uint64(1)<<uint(msgs) - 1; ; code-- {
		sched := base
		sched.Delays = sp.delays(code, msgs)
		out, err := sp.runner.Run(sched)
		if err != nil {
			return KillEntry{}, err
		}
		e.Runs++
		if kind := out.Violation(); kind != "" {
			e.Killed, e.Kind = true, kind
			return e, nil
		}
		if code == 0 {
			return e, nil
		}
	}
}

// WriteKillMatrix renders the exhaustive kill matrix as deterministic
// text.
func WriteKillMatrix(w io.Writer, entries []KillEntry) {
	harness.WriteKillMatrix(w, entries, harness.KillWording{
		Runs: "runs", Clean: "clean (exhaustive)", Survived: "survived full space", VerdictWidth: 26})
}
