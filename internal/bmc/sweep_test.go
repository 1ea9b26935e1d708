package bmc

import (
	"errors"
	"reflect"
	"testing"

	"lintime/internal/harness"
	"lintime/internal/simtime"
)

// windowStart is Algorithm 1's non-zero first-op start instant, the
// midpoint of the accessor timestamp window.
func windowStart(p simtime.Params) simtime.Duration {
	b, _ := harness.Lookup(harness.AlgCore)
	return b.Starts(p)[0]
}

// treeSends is a synthetic protocol whose send count depends on the
// delays of its earlier sends (bit j of code is send j's delay): two
// sends always; a slow send 1 provokes sends 2 and 3, and then a slow
// send 3 provokes 4 and 5; otherwise a slow send 0 provokes send 2.
func treeSends(code uint64) int {
	bit := func(j int) bool { return code&(1<<uint(j)) != 0 }
	switch {
	case bit(1) && bit(3):
		return 6
	case bit(1):
		return 4
	case bit(0):
		return 3
	}
	return 2
}

// leaf is one path through a send tree: the sends made and the delay
// bits they read.
type leaf struct {
	sends int
	bits  uint64
}

func leafOf(code uint64) leaf {
	k := treeSends(code)
	return leaf{k, code & (1<<uint(k) - 1)}
}

// TestSweepCodesWidens: a context whose count varies with earlier delays
// is swept through every leaf of its send tree, starting from the
// all-d path's count, and each run off that count is miscounted.
func TestSweepCodesWidens(t *testing.T) {
	want := map[leaf]bool{}
	for code := uint64(0); code < 1<<6; code++ {
		want[leafOf(code)] = true
	}
	got := map[leaf]bool{}
	runs, odd := 0, 0
	miscounted, err := sweepCodes(treeSends(0), func(code uint64, width int) (int, error) {
		if code >= 1<<uint(width) {
			t.Fatalf("code %d run at width %d", code, width)
		}
		runs++
		got[leafOf(code)] = true
		sent := treeSends(code)
		if sent != treeSends(0) {
			odd++
		}
		return sent, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reached %d of %d leaves: %v, want %v", len(got), len(want), got, want)
	}
	if miscounted != odd || odd == 0 {
		t.Errorf("miscounted = %d, want %d of %d runs", miscounted, odd, runs)
	}
}

// TestSweepCodesConstant: with a count that never varies the sweep is
// exactly codes 0..2^M-1 in order; a run short of the width is
// miscounted but does not narrow the sweep; a run error ends it.
func TestSweepCodesConstant(t *testing.T) {
	for _, sent := range []int{3, 1} {
		var codes []uint64
		miscounted, err := sweepCodes(3, func(code uint64, width int) (int, error) {
			if width != 3 {
				t.Fatalf("width %d, want 3", width)
			}
			codes = append(codes, code)
			return sent, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := []uint64{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(codes, want) {
			t.Errorf("sent %d: codes %v, want %v", sent, codes, want)
		}
		if want := map[int]int{3: 0, 1: 8}[sent]; miscounted != want {
			t.Errorf("sent %d: miscounted %d, want %d", sent, miscounted, want)
		}
	}
	boom := errors.New("boom")
	calls := 0
	if _, err := sweepCodes(3, func(uint64, int) (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) || calls != 1 {
		t.Errorf("run error: %v after %d calls, want boom after 1", err, calls)
	}
}
