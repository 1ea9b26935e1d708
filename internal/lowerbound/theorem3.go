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

// Theorem3 mechanizes the last-sensitive mutator bound
// |OP| ≥ (1 - 1/k)·u (Theorem 3) on a FIFO queue with enqueue. See
// Theorem3For for other data types.
func Theorem3(p simtime.Params, k int, budget simtime.Duration) (*Report, error) {
	sc, err := findScenario(3, Thm3Scenarios(), "queue")
	if err != nil {
		return nil, err
	}
	return Theorem3For(p, sc, k, budget)
}

// Theorem3On runs the Theorem 3 construction on the named data type's
// stock scenario.
func Theorem3On(p simtime.Params, typeName string, k int, budget simtime.Duration) (*Report, error) {
	sc, err := findScenario(3, Thm3Scenarios(), typeName)
	if err != nil {
		return nil, err
	}
	return Theorem3For(p, sc, k, budget)
}

// Theorem3For mechanizes Theorem 3 for an arbitrary last-sensitive
// mutator scenario.
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
func Theorem3For(p simtime.Params, sc Thm3Scenario, k int, budget simtime.Duration) (*Report, error) {
	if k < 2 || k > p.N {
		return nil, fmt.Errorf("lowerbound: need 2 ≤ k ≤ n, got k=%d n=%d", k, p.N)
	}
	kd := simtime.Duration(k)
	if p.U%(2*kd) != 0 {
		return nil, fmt.Errorf("lowerbound: u = %v must be divisible by 2k = %d", p.U, 2*k)
	}
	bound := p.U - p.U/kd
	if p.Epsilon < bound {
		return nil, fmt.Errorf("lowerbound: need ε ≥ (1-1/k)u = %v, got %v", bound, p.Epsilon)
	}
	args := sc.Args(k)
	if args == nil {
		return nil, fmt.Errorf("lowerbound: type %s cannot provide %d distinct %s instances", sc.TypeName, k, sc.Op)
	}
	rep := &Report{Theorem: "Theorem 3", DataType: sc.TypeName, Op: sc.Op,
		Budget: budget, Bound: bound}

	dt, err := adt.Lookup(sc.TypeName)
	if err != nil {
		return nil, err
	}
	classes := classify.Classify(dt, classify.DefaultConfig()).Classes()
	timers := core.DefaultTimers(p)
	timers.MOPRespond = budget
	nodes := core.NewReplicas(p.N, dt, classes, timers)
	net := sim.CirculantNetwork(p.N, k, p.D, p.U)
	if err := net.Validate(p); err != nil {
		return nil, err
	}
	eng, err := sim.NewEngine(p, sim.ZeroOffsets(p.N), net, nodes)
	if err != nil {
		return nil, err
	}

	// Optional prefix ρ, executed sequentially by p0.
	gap := p.D + p.U + p.Epsilon + 10
	t := simtime.Time(0)
	if sc.Rho != nil {
		for _, inv := range sc.Rho(k) {
			eng.InvokeAt(0, t, inv.Op, inv.Arg)
			t = t.Add(gap)
		}
		t = t.Add(2 * gap) // quiescence margin before the concurrent phase
	}

	// k concurrent instances at time t.
	for i := 0; i < k; i++ {
		eng.InvokeAt(sim.ProcID(i), t, sc.Op, args[i])
	}
	// Probe sequence at p0 revealing the linearization.
	probes := sc.Probes(k)
	probeStart := t.Add(3 * gap)
	var probeSeqs []int64
	for i, inv := range probes {
		seq := eng.InvokeAt(0, probeStart.Add(simtime.Duration(i)*gap), inv.Op, inv.Arg)
		probeSeqs = append(probeSeqs, seq)
	}
	tr := eng.Run()
	if err := tr.CheckComplete(); err != nil {
		return nil, err
	}
	if err := tr.CheckAdmissible(); err != nil {
		return nil, err
	}

	probeRets := make([]spec.Value, len(probeSeqs))
	for i, seq := range probeSeqs {
		probeRets[i] = opBySeq(tr, seq).Ret
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
	shifted, err := shift.Shift(tr, x)
	if err != nil {
		return nil, err
	}
	if err := shifted.CheckAdmissible(); err != nil {
		return nil, fmt.Errorf("lowerbound: shifted run inadmissible (construction bug): %w", err)
	}
	rep.logf("R2 = shift(R1, x) with x = %v: admissible (max skew (1-1/k)u = %v ≤ ε = %v)",
		x[:k], bound, p.Epsilon)

	res := lincheck.CheckTrace(dt, shifted)
	rep.ViolationFound = !res.Linearizable
	if rep.ViolationFound {
		rep.logf("R2 is NOT linearizable: op_%d responds before op_%d is invoked, but the probes put it last", z, (z+1)%k)
	} else {
		rep.logf("R2 remains linearizable: budget %v ≥ (1-1/k)u = %v keeps the instances overlapping", budget, bound)
	}
	rep.logf("history: %s", formatOps(shifted.CompletedOps()))
	return rep, nil
}
