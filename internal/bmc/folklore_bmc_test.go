package bmc

import (
	"testing"

	"lintime/internal/adt"
	"lintime/internal/adversary"
	"lintime/internal/harness"
	"lintime/internal/simtime"
)

// TestFolkloreStronglyLinearizable is the exhaustive strong-
// linearizability sweep over both folklore baselines.
// The checker decides an observation-level property: one prefix-
// preserving linearization over the client-visible event tree of each
// context's futures. Both backends fix every operation's linearization
// point at a single server-side event (execution-level strong
// linearizability by construction), and at n=2 the observation-level
// sweep confirms it exhaustively — the golden pin that total-order
// broadcast (and the central server) is strongly linearizable where
// Algorithm 1 and the ABD register are not.
//
// At n=3 the observation-level property is strictly stronger than the
// execution-level one, and the sweep quantifies the gap: two remote
// operations can be ordered inside the server while slow replies keep
// the observable prefixes of both orders identical, so no linearization
// function over client-visible prefixes can commit early enough.
// Exactly 16 of 234 two-op contexts per backend realize that shape; the
// pin is the tripwire for either the checker or the start-time
// enumeration drifting.
func TestFolkloreStronglyLinearizable(t *testing.T) {
	cases := []struct {
		n, maxOps  int
		strongViol int
	}{
		{2, 3, 0},  // golden: strongly linearizable, exhaustively
		{3, 2, 16}, // observation-level gap, quantified
	}
	for _, alg := range []string{harness.AlgCentral, harness.AlgSequencer} {
		for _, tc := range cases {
			rep, err := Verify(Config{
				Params: simtime.DefaultParams(tc.n),
				DT:     adt.NewQueue(),
				Target: adversary.Target{Algorithm: alg},
				MaxOps: tc.maxOps,
				Strong: true,
			})
			if err != nil {
				t.Fatalf("%s n=%d: %v", alg, tc.n, err)
			}
			if !rep.OK {
				t.Fatalf("%s n=%d maxOps=%d violated: %+v", alg, tc.n, tc.maxOps, rep.Violations[0])
			}
			if rep.StrongChecked != rep.Contexts || rep.StrongViolations != tc.strongViol {
				t.Errorf("%s n=%d maxOps=%d: strong sweep checked %d/%d contexts, %d violations, want %d",
					alg, tc.n, tc.maxOps, rep.StrongChecked, rep.Contexts, rep.StrongViolations, tc.strongViol)
			}
			if rep.OffsetPatterns != 1 {
				t.Errorf("%s: offset axis did not collapse for a clock-free protocol (%d patterns)", alg, rep.OffsetPatterns)
			}
			t.Logf("%-9s n=%d maxOps=%d: %d contexts, %d runs, %d strong violations",
				alg, tc.n, tc.maxOps, rep.Contexts, rep.Runs, rep.StrongViolations)
		}
	}
}
