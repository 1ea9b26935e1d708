package adversary

import (
	"reflect"
	"strings"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/sim"
	"lintime/internal/simtime"
)

// TestPlannedOpAt pins the plumbing of an op pinned to an absolute
// instant: Validate refuses a negative At, String renders it '@t' like a
// first op, Clone copies it, and the run invokes it at exactly At.
func TestPlannedOpAt(t *testing.T) {
	p := simtime.DefaultParams(3)
	dt := adt.NewQueue()
	at := simtime.Time(3 * p.D)
	s := Schedule{
		Offsets: make([]simtime.Duration, 3),
		Plans:   [][]PlannedOp{{{Op: "enqueue", Arg: 1}, {Op: "peek", At: at}}, nil, nil},
	}
	if err := s.Validate(p, dt); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	neg := s.Clone()
	neg.Plans[0][1].At = -1
	if err := neg.Validate(p, dt); err == nil {
		t.Error("negative At accepted")
	}
	if got := s.Plans[0][1].At; got != at {
		t.Errorf("editing a clone changed the original's At to %v", got)
	}
	if got, want := s.String(), "p0: enqueue(1)@0 | peek(⊥)@"+at.String()+"\n"; !strings.HasSuffix(got, want) {
		t.Errorf("String() = %q, want suffix %q", got, want)
	}
	out, err := (&Runner{Params: p, DT: dt}).Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if ops := out.Trace.OpsOf(0); len(ops) != 2 || ops[1].InvokeTime != at {
		t.Errorf("p0 ran %+v, want its second op invoked at %v", ops, at)
	}
}

// TestShrinkKeepsAt shrinks a violating schedule whose later ops are
// pinned to the instants the original run invoked them at, and replays
// the shrunk schedule: it must reproduce the reported kind, identically
// on every replay, with its surviving pinned ops still pinned.
func TestShrinkKeepsAt(t *testing.T) {
	opts := defaultOpts()
	opts.Target = Target{Mutant: "aop-no-eps"}
	opts.Budget = 64
	opts.StopEarly = true
	rep, err := Fuzz(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("no violation to shrink")
	}
	r := &Runner{Params: opts.Params, DT: opts.DT, Target: opts.Target}
	s := rep.Violations[0].Schedule.Clone()
	orig, err := r.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	pinned := 0
	for proc, plan := range s.Plans {
		for i, rec := range orig.Trace.OpsOf(sim.ProcID(proc)) {
			if i > 0 {
				plan[i].At, plan[i].Gap = rec.InvokeTime, 0
				pinned++
			}
		}
	}
	if pinned == 0 {
		t.Fatal("the violating schedule has no later op to pin")
	}
	shrunk, kind, _, err := Shrink(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if kind == "" {
		t.Fatal("the pinned schedule does not violate")
	}
	kept := 0
	for _, plan := range shrunk.Plans {
		for i, op := range plan {
			if i > 0 && op.At != 0 {
				kept++
			}
		}
	}
	if kept == 0 {
		t.Errorf("no pinned op survived the shrink:\n%s", shrunk)
	}
	a, err := r.Run(shrunk)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if a.Violation() != kind || !reflect.DeepEqual(a.Trace.Clone(), b.Trace.Clone()) {
		t.Errorf("replays of the shrunk schedule give %q and differ (%v); want %q twice:\n%s",
			a.Violation(), !reflect.DeepEqual(a.Trace.Clone(), b.Trace.Clone()), kind, shrunk)
	}
}

// runOwned runs s on kit k and keeps a copy of the outcome, as Run does
// on a pooled kit.
func (r *Runner) runOwned(k *kit, s Schedule, net sim.Network) (out *Outcome, err error) {
	err = r.runOn(k, s, net, func(o *Outcome) error {
		out = o.clone()
		return nil
	})
	return out, err
}

// TestOutcomesOwnTheirTraces pins what the lower-bound constructions rely
// on when they keep several runs of one Runner alive at once: an
// outcome's trace is unchanged after its kit runs the next schedule.
func TestOutcomesOwnTheirTraces(t *testing.T) {
	p := simtime.DefaultParams(3)
	r := &Runner{Params: p, DT: adt.NewQueue()}
	if err := r.resolve(); err != nil {
		t.Fatal(err)
	}
	k := r.take()
	net := sim.NewPairwiseNetwork(p.N, p.D)
	run := func(arg int, at simtime.Time) *Outcome {
		t.Helper()
		s := Schedule{Offsets: make([]simtime.Duration, p.N), Plans: [][]PlannedOp{
			{{Op: "enqueue", Arg: arg}, {Op: "dequeue", At: at}}, {{Op: "peek", At: at}}, nil}}
		out, err := r.runOwned(k, s, net)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := run(1, simtime.Time(2*p.D))
	before := first.Trace.Clone()
	second := run(2, simtime.Time(3*p.D))
	if second.Trace == first.Trace {
		t.Fatal("the kit handed out the same trace twice")
	}
	if !reflect.DeepEqual(first.Trace.Clone(), before) {
		t.Errorf("the first trace changed when the kit ran again:\nbefore %+v\nafter  %+v", before.Ops, first.Trace.Ops)
	}
}
