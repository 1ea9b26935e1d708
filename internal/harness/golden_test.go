package harness

import (
	"testing"

	"lintime/internal/simtime"
)

// TestMeasureTableGolden pins the measured columns of Tables 1 and 2 for
// the canonical parameters and master seed 21. The values are exact
// because under the uniform-d network with zero offsets every Algorithm 1
// latency is timer-determined (measured == class formula); the pins guard
// the seed-derivation scheme — reordering or re-coupling the workload and
// config sub-seed streams would shift these numbers.
func TestMeasureTableGolden(t *testing.T) {
	p := simtime.DefaultParams(4)
	want := map[int]map[string][2]simtime.Duration{
		1: {
			"rmw":        {27720, 40320},
			"write":      {15120, 40320},
			"read":       {20160, 40320},
			"write+read": {35280, 80640},
		},
		2: {
			"enqueue":      {15120, 40320},
			"dequeue":      {27720, 40320},
			"peek":         {20160, 40320},
			"enqueue+peek": {35280, 80640},
		},
	}
	for num, rows := range want {
		tab, err := MeasureTableParallel(num, p, 21, 1)
		if err != nil {
			t.Fatalf("table %d: %v", num, err)
		}
		seen := map[string]bool{}
		for _, r := range tab.Rows {
			exp, ok := rows[r.Operation]
			if !ok {
				continue
			}
			seen[r.Operation] = true
			if r.Measured.Max != exp[0] || r.Measured.Baseline != exp[1] {
				t.Errorf("table %d %s: measured=%v baseline=%v, want %v/%v",
					num, r.Operation, r.Measured.Max, r.Measured.Baseline, exp[0], exp[1])
			}
		}
		for op := range rows {
			if !seen[op] {
				t.Errorf("table %d: row %q missing", num, op)
			}
		}
	}
}

// TestMeasureTableSeedStreamsIndependent asserts the workload and config
// sub-seed streams really are decoupled: changing the master seed changes
// the derived sub-seeds, but the measured maxima above stay pinned to the
// formulas because the uniform network leaves no seed-dependent slack.
func TestMeasureTableSeedStreamsIndependent(t *testing.T) {
	if DeriveSeed(21, "table/workload") == DeriveSeed(21, "table/config") {
		t.Fatal("workload and config sub-seeds alias")
	}
	p := simtime.DefaultParams(4)
	a, err := MeasureTableParallel(2, p, 21, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureTableParallel(2, p, 9000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i].Measured.Max != b.Rows[i].Measured.Max {
			t.Errorf("row %s: measured max is seed-dependent under uniform network (%v vs %v)",
				a.Rows[i].Operation, a.Rows[i].Measured.Max, b.Rows[i].Measured.Max)
		}
	}
}
