package lowerbound

import (
	"fmt"
	"slices"

	"lintime/internal/adversary"
	"lintime/internal/bounds"
	"lintime/internal/core"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// Theorem2 mechanizes the pure-accessor bound |AOP| ≥ u/4 (Theorem 2) on
// a pure accessor of the named type, from classify's witness: a mutator
// instance after which the accessor's response changes.
//
// Construction (following the proof): all delays are d - u/2 and clocks
// agree. Processes p0 and p1 execute alternating non-overlapping AOP
// instances every u/4 while p2 invokes one mutator whose announcement
// takes d - u/2 to arrive, so the accessors flip from the old return
// value to the new one at some index j. Shifting the process of the last
// old-value instance u/4 later and the other process u/4 earlier keeps
// the run admissible (delays stay in [d-u, d], skew u/2 ≤ ε) but makes
// the first new-value instance respond before the last old-value instance
// is invoked — which no linearization can explain when the budget is
// below u/4.
//
// The hypothetical algorithm is Algorithm 1 with the accessor wait forced
// to the budget and the mutator response slowed to d+ε so the mutator
// stays concurrent with the flip (any algorithm with |AOP| < u/4 is
// subject to the theorem; slow mutators keep the *unshifted* run
// linearizable, isolating the shift as the killer).
func Theorem2(p simtime.Params, typeName, opName string, budget simtime.Duration) (*Report, error) {
	if p.N < 3 {
		return nil, fmt.Errorf("lowerbound: Theorem 2 needs n ≥ 3, got %d", p.N)
	}
	if p.U%4 != 0 {
		return nil, fmt.Errorf("lowerbound: u = %v must be divisible by 4", p.U)
	}
	if p.Epsilon < p.U/2 {
		return nil, fmt.Errorf("lowerbound: need ε ≥ u/2 (ε = %v, u/2 = %v)", p.Epsilon, p.U/2)
	}
	quarter := bounds.QuarterU(p).Value
	rep := &Report{Theorem: "Theorem 2", DataType: typeName, Op: opName, Budget: budget, Bound: quarter}
	timers := core.Timers{
		AOPRespond:  budget,
		AOPBackdate: 0,
		MOPRespond:  p.D + p.Epsilon, // keep the mutator concurrent with the flip
		AddSelf:     p.D - p.U,
		ExecuteWait: p.U + p.Epsilon,
	}
	kt, err := newKit(p, rep, timers, sim.NewPairwiseNetwork(p.N, p.D-p.U/2))
	if err != nil {
		return nil, err
	}
	w, err := kt.scenario(2)
	if err != nil {
		return nil, err
	}
	if len(w.Rho) > 0 {
		return nil, fmt.Errorf("lowerbound: %s.%s's witness needs ρ = %s; Theorem 2 runs from the initial state", typeName, opName, spec.FormatSeq(w.Rho))
	}
	mut, aop := w.Instances[0], w.Instances[1] // aop.Ret is the old value, before mut

	// Alternating accessors at p0/p1; one mutator at p2.
	step := simtime.Max(quarter, budget+1) // keep same-process instances non-overlapping
	start := simtime.Time(quarter)
	count := int((p.D+p.U)/step) + 4
	plans := [][]adversary.PlannedOp{2: {at(start.Add(step), mut.Op, mut.Arg)}}
	for i := 0; i < count; i++ {
		plans[i%2] = append(plans[i%2], at(start.Add(simtime.Duration(i)*step), opName, aop.Arg))
	}
	tr, err := kt.run(nil, plans...)
	if err != nil {
		return nil, err
	}
	aops := slices.DeleteFunc(slices.Clone(tr.Ops), func(rec sim.OpRecord) bool { return rec.Proc == 2 }) // in invocation order
	rep.logf("R1: %d alternating %s instances at p0/p1 every %v; %s(%s) at p2; all delays d-u/2 = %v",
		count, opName, step, mut.Op, spec.FormatValue(mut.Arg), p.D-p.U/2)

	// Locate j: the last accessor returning the old value, and verify the
	// flip is monotone (old* then new*), as the proof requires.
	j := -1
	for i, rec := range aops {
		if spec.ValuesEqual(rec.Ret, aop.Ret) {
			j = i
		}
	}
	if j < 0 || j+1 >= count {
		return nil, fmt.Errorf("lowerbound: accessor flip not captured (j = %d of %d)", j, count)
	}
	for i, rec := range aops {
		if (i <= j) != spec.ValuesEqual(rec.Ret, aop.Ret) {
			return nil, fmt.Errorf("lowerbound: non-monotone flip at instance %d", i)
		}
	}
	jProc := aops[j].Proc
	rep.logf("flip at j = %d (last old-value %s, at p%d; old value %s)",
		j, opName, jProc, spec.FormatValue(aop.Ret))

	// Shift the last old-value process later by u/4 and the other peeker
	// earlier.
	x := single(p.N, jProc, quarter)
	x[1-jProc] = -quarter
	shifted, err := shiftRun(tr, x)
	if err != nil {
		return nil, err
	}
	rep.logf("R2 = shift(R1, x) with x[p%d] = +u/4, x[p%d] = -u/4: admissible (skew u/2 = %v ≤ ε = %v)",
		jProc, 1-jProc, p.U/2, p.Epsilon)
	kt.judge(shifted,
		fmt.Sprintf("R2 is NOT linearizable: %s %d (new value) responds before %s %d (old value) is invoked", opName, j+1, opName, j),
		fmt.Sprintf("R2 remains linearizable: budget %v ≥ u/4 = %v keeps the instances overlapping", budget, quarter))
	return rep, nil
}
