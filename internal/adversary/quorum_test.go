package adversary

import (
	"testing"

	"lintime/internal/adt"
	"lintime/internal/harness"
	"lintime/internal/simtime"
)

// quorumParams are the fuzzing parameters used against the ABD quorum
// backend: a wide delay uncertainty (u = 3d/4) so that fast and slow
// message interleavings diverge enough to expose stale reads. The
// quorum protocol reads no clocks, so ε and X are irrelevant and kept 0.
func quorumParams(n int) simtime.Params {
	return simtime.Params{N: n, D: 8 * simtime.Quantum, U: 6 * simtime.Quantum}
}

// TestQuorumKillMatrix is the crash-tolerance headline: schedule
// exploration with fault axes (crashes, drops) kills every seeded ABD
// mutant while the correct protocol survives the same budget.
func TestQuorumKillMatrix(t *testing.T) {
	opts := Options{
		Params: quorumParams(3),
		DT:     adt.NewRegister(0),
		Target: Target{Algorithm: harness.AlgQuorum},
		Seed:   1,
		Budget: 16384,
		Shrink: true,
	}
	entries, err := KillMatrix(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 { // control + 4 mutants
		t.Fatalf("expected 5 kill-matrix rows, got %d", len(entries))
	}
	for _, e := range entries {
		if e.Mutant == "correct" {
			if e.Killed {
				t.Errorf("control (correct ABD) was killed: kind=%s", e.Kind)
			}
			continue
		}
		if !e.Killed {
			t.Errorf("mutant %q survived %d schedules", e.Mutant, e.Runs)
			continue
		}
		t.Logf("mutant %-18s killed after %4d schedules (%s)", e.Mutant, e.Runs, e.Kind)
		if e.Witness.Shrunk != nil {
			t.Logf("  shrunk: %s", e.Witness.Shrunk)
		}
	}
}

// TestQuorumFaultScheduleAdmissible pins the fault-axis plumbing: a
// schedule with a crash and a dropped message runs against the quorum
// backend, produces an admissible trace, and completes (modulo ops
// invoked at crashed processes).
func TestQuorumFaultSchedule(t *testing.T) {
	p := quorumParams(3)
	r := &Runner{Params: p, DT: adt.NewRegister(0), Target: Target{Algorithm: harness.AlgQuorum}}
	s := Schedule{
		Offsets: make([]simtime.Duration, 3),
		Plans: [][]PlannedOp{
			{{Op: adt.OpWrite, Arg: 1}},
			{{Op: adt.OpRead, Gap: 2 * p.D}},
			nil,
		},
		Crashes: []simtime.Time{simtime.Infinity, simtime.Infinity, 0},
		Drops:   []int64{0},
	}
	out, err := r.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if v := out.Violation(); v != "" {
		t.Fatalf("fault schedule violated %q unexpectedly", v)
	}
	dropped := 0
	for _, m := range out.Trace.Msgs {
		if m.Dropped {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("expected dropped messages in trace (crash at p2 plus drop ordinal 0)")
	}
}

// TestFaultGate pins the admissibility boundary: fault axes against a
// target that assumes reliable processes must be rejected, not silently
// ignored.
func TestFaultGate(t *testing.T) {
	p := simtime.DefaultParams(3)
	r := &Runner{Params: p, DT: adt.NewRegister(0), Target: Target{Algorithm: harness.AlgCore}}
	s := Schedule{
		Offsets: make([]simtime.Duration, 3),
		Plans:   [][]PlannedOp{{{Op: adt.OpWrite, Arg: 1}}, nil, nil},
		Crashes: []simtime.Time{simtime.Infinity, simtime.Infinity, 0},
	}
	if _, err := r.Run(s); err == nil {
		t.Fatal("expected fault-gate error for crash schedule against core target")
	}
}
