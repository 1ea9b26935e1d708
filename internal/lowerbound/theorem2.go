package lowerbound

import (
	"fmt"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/core"
	"lintime/internal/lincheck"
	"lintime/internal/shift"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// Theorem2 mechanizes the pure-accessor bound |AOP| ≥ u/4 (Theorem 2) on
// a FIFO queue with peek as the accessor. See Theorem2For for other data
// types.
func Theorem2(p simtime.Params, budget simtime.Duration) (*Report, error) {
	sc, err := findScenario(2, Thm2Scenarios(), "queue")
	if err != nil {
		return nil, err
	}
	return Theorem2For(p, sc, budget)
}

// Theorem2On runs the Theorem 2 construction on the named data type's
// stock scenario.
func Theorem2On(p simtime.Params, typeName string, budget simtime.Duration) (*Report, error) {
	sc, err := findScenario(2, Thm2Scenarios(), typeName)
	if err != nil {
		return nil, err
	}
	return Theorem2For(p, sc, budget)
}

// Theorem2For mechanizes Theorem 2 for an arbitrary pure-accessor
// scenario.
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
func Theorem2For(p simtime.Params, sc Thm2Scenario, budget simtime.Duration) (*Report, error) {
	if p.N < 3 {
		return nil, fmt.Errorf("lowerbound: Theorem 2 needs n ≥ 3, got %d", p.N)
	}
	if p.U%4 != 0 {
		return nil, fmt.Errorf("lowerbound: u = %v must be divisible by 4", p.U)
	}
	if p.Epsilon < p.U/2 {
		return nil, fmt.Errorf("lowerbound: need ε ≥ u/2 (ε = %v, u/2 = %v)", p.Epsilon, p.U/2)
	}
	rep := &Report{Theorem: "Theorem 2", DataType: sc.TypeName, Op: sc.AOP,
		Budget: budget, Bound: p.U / 4}

	dt, err := adt.Lookup(sc.TypeName)
	if err != nil {
		return nil, err
	}
	oldValue := spec.Response(dt.Initial(), sc.AOP, sc.AOPArg)
	classes := classify.Classify(dt, classify.DefaultConfig()).Classes()
	timers := core.Timers{
		AOPRespond:  budget,
		AOPBackdate: 0,
		MOPRespond:  p.D + p.Epsilon, // keep the mutator concurrent with the flip
		AddSelf:     p.D - p.U,
		ExecuteWait: p.U + p.Epsilon,
	}
	nodes := core.NewReplicas(p.N, dt, classes, timers)
	net := sim.NewPairwiseNetwork(p.N, p.D-p.U/2)
	eng, err := sim.NewEngine(p, sim.ZeroOffsets(p.N), net, nodes)
	if err != nil {
		return nil, err
	}

	// Alternating accessors at p0/p1; one mutator at p2.
	quarter := p.U / 4
	step := simtime.Max(quarter, budget+1) // keep same-process instances non-overlapping
	start := simtime.Time(quarter)
	count := int((p.D+p.U)/step) + 4
	var aopSeqs []int64
	for i := 0; i < count; i++ {
		proc := sim.ProcID(i % 2)
		seq := eng.InvokeAt(proc, start.Add(simtime.Duration(i)*step), sc.AOP, sc.AOPArg)
		aopSeqs = append(aopSeqs, seq)
	}
	eng.InvokeAt(2, start.Add(step), sc.Mut, sc.MutArg)
	tr := eng.Run()
	if err := tr.CheckComplete(); err != nil {
		return nil, err
	}
	if err := tr.CheckAdmissible(); err != nil {
		return nil, err
	}
	rep.logf("R1: %d alternating %s instances at p0/p1 every %v; %s(%s) at p2; all delays d-u/2 = %v",
		count, sc.AOP, step, sc.Mut, spec.FormatValue(sc.MutArg), p.D-p.U/2)

	// Locate j: the last accessor returning the old value, and verify the
	// flip is monotone (old* then new*), as the proof requires.
	j := -1
	for i, seq := range aopSeqs {
		if spec.ValuesEqual(opBySeq(tr, seq).Ret, oldValue) {
			j = i
		}
	}
	if j < 0 || j+1 >= len(aopSeqs) {
		return nil, fmt.Errorf("lowerbound: accessor flip not captured (j = %d of %d)", j, len(aopSeqs))
	}
	for i, seq := range aopSeqs {
		isOld := spec.ValuesEqual(opBySeq(tr, seq).Ret, oldValue)
		if (i <= j) != isOld {
			return nil, fmt.Errorf("lowerbound: non-monotone flip at instance %d", i)
		}
	}
	jProc := opBySeq(tr, aopSeqs[j]).Proc
	rep.logf("flip at j = %d (last old-value %s, at p%d; old value %s)",
		j, sc.AOP, jProc, spec.FormatValue(oldValue))

	// Shift the last old-value process later by u/4 and the other peeker
	// earlier.
	x := make([]simtime.Duration, p.N)
	x[jProc] = quarter
	x[1-jProc] = -quarter
	shifted, err := shift.Shift(tr, x)
	if err != nil {
		return nil, err
	}
	if err := shifted.CheckAdmissible(); err != nil {
		return nil, fmt.Errorf("lowerbound: shifted run inadmissible (construction bug): %w", err)
	}
	rep.logf("R2 = shift(R1, x) with x[p%d] = +u/4, x[p%d] = -u/4: admissible (skew u/2 = %v ≤ ε = %v)",
		jProc, 1-jProc, p.U/2, p.Epsilon)

	res := lincheck.CheckTrace(dt, shifted)
	rep.ViolationFound = !res.Linearizable
	if rep.ViolationFound {
		rep.logf("R2 is NOT linearizable: %s %d (new value) responds before %s %d (old value) is invoked",
			sc.AOP, j+1, sc.AOP, j)
	} else {
		rep.logf("R2 remains linearizable: budget %v ≥ u/4 = %v keeps the instances overlapping", budget, p.U/4)
	}
	rep.logf("history: %s", formatOps(shifted.CompletedOps()))
	return rep, nil
}
