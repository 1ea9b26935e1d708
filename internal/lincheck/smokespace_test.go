package lincheck_test

import (
	"fmt"
	"reflect"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/adversary"
	"lintime/internal/bmc"
	"lintime/internal/lincheck"
	"lintime/internal/sim"
)

// TestTreeMatchesReferenceOnSmokeSpace compares Tree.Check with the
// reference search on the forest of every context of the n=2 smoke space
// that `lintime verify` sweeps: each context's distinct futures, as
// bmc.Verify folds them, whenever every future is linearizable.
func TestTreeMatchesReferenceOnSmokeSpace(t *testing.T) {
	cfg := bmc.Smoke(adt.NewQueue(), adversary.Target{})
	sp, err := bmc.NewSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &adversary.Runner{Params: cfg.Params, DT: cfg.DT, Trace: sim.TraceOps}
	checked, strong := 0, 0
contexts:
	for ctx := 0; ctx < sp.Contexts(); ctx++ {
		var forest [][]lincheck.Op
		seen := map[string]bool{}
		msgs := len(sp.Schedule(ctx, 0).Delays)
		for code := uint64(0); code < 1<<uint(msgs); code++ {
			out, err := r.Run(sp.Schedule(ctx, code))
			if err != nil {
				t.Fatal(err)
			}
			if out.Violation() != "" {
				continue contexts
			}
			h := lincheck.FromTrace(out.Trace)
			if key := fmt.Sprintf("%+v", h); !seen[key] {
				seen[key] = true
				forest = append(forest, h)
			}
		}
		tree := lincheck.NewTree()
		for _, h := range forest {
			tree.Add(h)
		}
		got, want := tree.Check(cfg.DT), lincheck.ReferenceCheckForest(cfg.DT, forest...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("context %d: Tree.Check = %+v, reference %+v", ctx, got, want)
		}
		checked++
		if got.Linearizable {
			strong++
		}
	}
	if checked != sp.Contexts() || strong == checked {
		t.Fatalf("%d of %d contexts compared, %d strongly linearizable", checked, sp.Contexts(), strong)
	}
}
