package lowerbound

import (
	"fmt"

	"lintime/internal/adversary"
	"lintime/internal/bounds"
	"lintime/internal/core"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// Theorem3 mechanizes the last-sensitive mutator bound
// |OP| ≥ (1 - 1/k)·u (Theorem 3) on the named data type's stock scenario
// (Thm3Scenarios).
//
// Construction (following the proof, Figure 1): the delay matrix is the
// circulant d_ij = d - ((i-j) mod k)·u/k for i,j < k and d - u/2
// elsewhere; clocks agree. After an optional prefix ρ executed by p0,
// processes p0..p_{k-1} invoke the k distinct instances simultaneously at
// time t; afterwards p0 runs the scenario's probe sequence, revealing
// which instance the algorithm linearized last (p_z). Shifting by
// x_i = (-(k-1)/(2k) + ((z-i) mod k)/k)·u keeps the run admissible but,
// if |OP| < (1-1/k)u, makes op_z respond strictly before op_{(z+1) mod k}
// is invoked — forcing op_z to linearize before it, contradicting the
// probes that reveal op_z last.
func Theorem3(p simtime.Params, typeName string, k int, budget simtime.Duration) (*Report, error) {
	sc, err := findScenario(3, Thm3Scenarios(), typeName)
	if err != nil {
		return nil, err
	}
	if k < 2 || k > p.N {
		return nil, fmt.Errorf("lowerbound: need 2 ≤ k ≤ n, got k=%d n=%d", k, p.N)
	}
	kd := simtime.Duration(k)
	if p.U%(2*kd) != 0 {
		return nil, fmt.Errorf("lowerbound: u = %v must be divisible by 2k = %d", p.U, 2*k)
	}
	bound := bounds.LastSensitive(p, k).Value
	if p.Epsilon < bound {
		return nil, fmt.Errorf("lowerbound: need ε ≥ (1-1/k)u = %v, got %v", bound, p.Epsilon)
	}
	args := sc.Args(k)
	if args == nil {
		return nil, fmt.Errorf("lowerbound: type %s cannot provide %d distinct %s instances", sc.TypeName, k, sc.Op)
	}
	rep := &Report{Theorem: "Theorem 3", DataType: sc.TypeName, Op: sc.Op, Budget: budget, Bound: bound}
	timers := core.DefaultTimers(p)
	timers.MOPRespond = budget
	kt, err := newKit(p, rep, timers, sim.CirculantNetwork(p.N, k, p.D, p.U))
	if err != nil {
		return nil, err
	}

	// p0 runs the optional prefix ρ, its own instance and the probes in
	// turn, a gap apart, and never invokes before a mutator it started
	// (forced to the budget) has responded.
	gap := p.D + p.U + p.Epsilon + 10
	settle := simtime.Max(3*gap, budget+1) // quiescence margin after a phase
	plans := make([][]adversary.PlannedOp, k)
	t := simtime.Time(0)
	if sc.Rho != nil {
		plans[0] = rhoPlan(sc.Rho(k), simtime.Max(gap, budget+1))
		t = plans[0][len(plans[0])-1].At.Add(settle)
	}
	for i := range plans {
		plans[i] = append(plans[i], at(t, sc.Op, args[i]))
	}
	probes := sc.Probes(k)
	for i, inv := range probes {
		plans[0] = append(plans[0], at(t.Add(settle+simtime.Duration(i)*gap), inv.Op, inv.Arg))
	}
	tr, err := kt.run(nil, plans...)
	if err != nil {
		return nil, err
	}
	p0 := tr.OpsOf(0)
	probeRets := make([]spec.Value, len(probes))
	for i, rec := range p0[len(p0)-len(probes):] {
		probeRets[i] = rec.Ret
	}
	z, err := sc.LastIndex(args, probeRets)
	if err != nil {
		return nil, err
	}
	if z < 0 || z >= k {
		return nil, fmt.Errorf("lowerbound: revealed last index %d out of range", z)
	}
	rep.logf("R1: %d concurrent %s instances at t=%v on the circulant delay matrix; probes reveal last = op_%d (at p%d)",
		k, sc.Op, t, z, z)

	// Shift per the proof: x_i = (-(k-1)/(2k) + ((z-i) mod k)/k)·u.
	x := make([]simtime.Duration, p.N)
	for i := 0; i < k; i++ {
		mod := simtime.Duration(((z-i)%k + k) % k)
		x[i] = -(kd-1)*p.U/(2*kd) + mod*p.U/kd
	}
	shifted, err := shiftRun(tr, x)
	if err != nil {
		return nil, err
	}
	rep.logf("R2 = shift(R1, x) with x = %v: admissible (max skew (1-1/k)u = %v ≤ ε = %v)",
		x[:k], bound, p.Epsilon)
	kt.judge(shifted,
		fmt.Sprintf("R2 is NOT linearizable: op_%d responds before op_%d is invoked, but the probes put it last", z, (z+1)%k),
		fmt.Sprintf("R2 remains linearizable: budget %v ≥ (1-1/k)u = %v keeps the instances overlapping", budget, bound))
	return rep, nil
}
