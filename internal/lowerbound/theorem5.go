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

// theorem5Matrix builds the D delay matrix of the Theorem 5 proof
// (Figure 8): d-m into p0 and p1, d everywhere else.
func theorem5Matrix(n int, d, m simtime.Duration) [][]simtime.Duration {
	mat := make([][]simtime.Duration, n)
	for i := range mat {
		mat[i] = make([]simtime.Duration, n)
		for j := range mat[i] {
			if i == j {
				continue
			}
			if j == 0 || j == 1 {
				mat[i][j] = d - m
			} else {
				mat[i][j] = d
			}
		}
	}
	return mat
}

// Theorem5 mechanizes the transposable-mutator + discriminating-accessor
// sum bound |OP| + |AOP| ≥ d + min{ε, u, d/3} (Theorem 5) on a FIFO
// queue with enqueue and peek (the paper's own example pair). See
// Theorem5For for other data types.
func Theorem5(p simtime.Params, budgetOp, budgetAop simtime.Duration) (*Report, error) {
	sc, err := findScenario(5, Thm5Scenarios(), "queue")
	if err != nil {
		return nil, err
	}
	return Theorem5For(p, sc, budgetOp, budgetAop)
}

// Theorem5On runs the Theorem 5 chain on the named data type's stock
// scenario.
func Theorem5On(p simtime.Params, typeName string, budgetOp, budgetAop simtime.Duration) (*Report, error) {
	sc, err := findScenario(5, Thm5Scenarios(), typeName)
	if err != nil {
		return nil, err
	}
	return Theorem5For(p, sc, budgetOp, budgetAop)
}

// Theorem5For mechanizes Theorem 5 for an arbitrary scenario satisfying
// the theorem's hypotheses (a transposable mutator and a pure accessor
// with the three discriminators).
//
// Construction: p0 and p1 concurrently invoke the two mutator instances
// after ρ; accessors at p0, p1 and (m later) p2 observe the order. Our
// Algorithm 1 linearizes p0's instance first (timestamp order), so we run
// the proof's symmetric case: shift p0 later by m, chop the now-invalid
// p0→p1 delay, and complete p1's chopped accessor with its physical value
// from the control run in which p0 never invokes — p1 cannot distinguish
// the two within its response time. The completed history pits the
// discriminators against each other: p1's accessor says op1 came first
// while p0's and p2's say op0 did — no linearization exists when the
// budget sum is below d+m.
func Theorem5For(p simtime.Params, sc Thm5Scenario, budgetOp, budgetAop simtime.Duration) (*Report, error) {
	if p.N < 3 {
		return nil, fmt.Errorf("lowerbound: Theorem 5 demo needs n ≥ 3, got %d", p.N)
	}
	m := MinPairFree(p)
	if m <= 0 {
		return nil, fmt.Errorf("lowerbound: need m = min{ε,u,d/3} > 0")
	}
	budget := budgetOp + budgetAop
	rep := &Report{Theorem: "Theorem 5", DataType: sc.TypeName, Op: sc.Op + "+" + sc.AOP,
		Budget: budget, Bound: p.D + m}
	if budgetAop < 1 || budgetOp < 1 {
		return nil, fmt.Errorf("lowerbound: budgets must be positive")
	}

	dt, err := adt.Lookup(sc.TypeName)
	if err != nil {
		return nil, err
	}
	classes := classify.Classify(dt, classify.DefaultConfig()).Classes()
	timers := core.DefaultTimers(p)
	timers.MOPRespond = budgetOp
	timers.AOPRespond = budgetAop
	timers.AOPBackdate = 0
	d1 := theorem5Matrix(p.N, p.D, m)
	gap := p.D + p.U + p.Epsilon
	t := simtime.Time(simtime.Duration(len(sc.Rho)+1) * gap)
	tMax := t.Add(budgetOp)

	runScenario := func(withP0 bool) (*sim.Trace, map[string]int64) {
		nodes := core.NewReplicas(p.N, dt, classes, timers)
		eng, err := sim.NewEngine(p, sim.ZeroOffsets(p.N), matrixNetwork(d1), nodes)
		if err != nil {
			panic(err)
		}
		for i, inv := range sc.Rho {
			eng.InvokeAt(0, simtime.Time(simtime.Duration(i)*gap), inv.Op, inv.Arg)
		}
		seqs := map[string]int64{}
		if withP0 {
			seqs["op0"] = eng.InvokeAt(0, t, sc.Op, sc.Op0Arg)
		}
		seqs["op1"] = eng.InvokeAt(1, t, sc.Op, sc.Op1Arg)
		if withP0 {
			seqs["aop0"] = eng.InvokeAt(0, tMax, sc.AOP, sc.AOPArg)
		}
		seqs["aop1"] = eng.InvokeAt(1, tMax, sc.AOP, sc.AOPArg)
		seqs["aop2"] = eng.InvokeAt(2, tMax.Add(m), sc.AOP, sc.AOPArg)
		return eng.Run(), seqs
	}

	// --- R1: the full concurrent scenario. ---
	r1, seqs := runScenario(true)
	if err := r1.CheckComplete(); err != nil {
		return nil, err
	}
	if err := r1.CheckAdmissible(); err != nil {
		return nil, err
	}
	rep.logf("R1: %s(%s)@p0 and %s(%s)@p1 at %v; %s at p0/p1 (%v) and p2 (%v): values %v/%v/%v",
		sc.Op, spec.FormatValue(sc.Op0Arg), sc.Op, spec.FormatValue(sc.Op1Arg), t,
		sc.AOP, tMax, tMax.Add(m),
		opBySeq(r1, seqs["aop0"]).Ret, opBySeq(r1, seqs["aop1"]).Ret, opBySeq(r1, seqs["aop2"]).Ret)
	if !lincheck.CheckTrace(dt, r1).Linearizable {
		rep.logf("R1 itself is not linearizable — the too-fast algorithm already fails without shifting")
		rep.ViolationFound = true
		return rep, nil
	}

	// --- Shift p0 later by m; the p0→p1 delay becomes d-2m. The shift
	// and chop apply to the suffix after ρ (the prefix is re-attached
	// below with matching offsets, per the proof's append step). ---
	rhoCut := t.Add(-1)
	x := make([]simtime.Duration, p.N)
	x[0] = m
	s1, err := shift.Shift(shift.Suffix(r1, rhoCut), x)
	if err != nil {
		return nil, err
	}
	m2 := shiftMatrix(d1, x)
	bad := shift.InvalidPairs(m2, p)
	if len(bad) == 0 {
		rep.logf("shifted p0→p1 delay d-2m = %v is still admissible (2m ≤ u); the written proof does not apply in this regime", m2[0][1])
		return rep, nil
	}
	if len(bad) != 1 || bad[0] != [2]sim.ProcID{0, 1} {
		return nil, fmt.Errorf("lowerbound: expected exactly p0→p1 invalid, got %v", bad)
	}

	// --- Chop at δ = d-m. ---
	s1c, err := shift.Chop(s1, m2, p, p.D-m)
	if err != nil {
		return nil, err
	}
	if err := shift.CheckFragment(s1c); err != nil {
		return nil, err
	}
	if err := s1c.CheckAdmissible(); err != nil {
		return nil, fmt.Errorf("lowerbound: chopped fragment inadmissible: %w", err)
	}
	// Claim 8 (mirrored): op0, op1, aop0, aop2 survive complete; aop1 is
	// chopped pending.
	complete := func(proc sim.ProcID, op string) (sim.OpRecord, bool) {
		rec, ok := findOp(s1c, proc, op)
		return rec, ok && !rec.Pending()
	}
	op0Rec, op0OK := complete(0, sc.Op)
	_, op1OK := complete(1, sc.Op)
	aop0Rec, aop0OK := complete(0, sc.AOP)
	aop2Rec, aop2OK := complete(2, sc.AOP)
	if !op0OK || !op1OK || !aop0OK || !aop2OK {
		rep.logf("chop removed a required operation (op0=%v op1=%v aop0=%v aop2=%v) — budget does not beat the bound",
			op0OK, op1OK, aop0OK, aop2OK)
		return rep, nil
	}
	if _, aop1Complete := complete(1, sc.AOP); aop1Complete {
		rep.logf("aop1 survived the chop complete — budget does not beat the bound")
		return rep, nil
	}
	if _, ok := findOp(s1c, 1, sc.AOP); !ok {
		rep.logf("aop1 was dropped entirely by the chop — budget does not beat the bound")
		return rep, nil
	}
	rep.logf("S1'' = chop(shift(S1, (+m,0,0)), d-m): op0 (%v), op1, aop0=%v, aop2=%v complete; aop1 pending",
		op0Rec.Ret, aop0Rec.Ret, aop2Rec.Ret)

	// --- Indistinguishability: p1 cannot learn of p0's (shifted)
	// invocation before its peek responds, over the repaired delays. ---
	m3 := copyMatrix(m2)
	m3[0][1] = p.D // repair, per the extension of R2
	op0Invoke := t.Add(m)
	aop1Respond := tMax.Add(budgetAop)
	earliestLearn := op0Invoke.Add(shift.ShortestPaths(m3)[0][1])
	if aop1Respond >= earliestLearn {
		rep.logf("p1 can learn of op0 by %v, at or before aop1's response %v — indistinguishability fails (budget respects the bound)",
			earliestLearn, aop1Respond)
		return rep, nil
	}

	// --- Control run: p1's world without p0's operations. ---
	ctl, ctlSeqs := runScenario(false)
	if err := ctl.CheckComplete(); err != nil {
		return nil, err
	}
	ctlVal := opBySeq(ctl, ctlSeqs["aop1"]).Ret
	rep.logf("control (no p0): aop1 returns %v; R2's p1 is indistinguishable through its response", ctlVal)

	// --- Re-attach ρ (executed under the shifted offsets), complete aop1
	// with its physical value, and check. ---
	frag := completePending(s1c, 1, sc.AOP, ctlVal, budgetAop)
	r2 := frag
	if len(sc.Rho) > 0 {
		shiftedOffsets := append([]simtime.Duration(nil), sim.ZeroOffsets(p.N)...)
		shiftedOffsets[0] = -m
		nodes := core.NewReplicas(p.N, dt, classes, timers)
		loose := p
		engP, err := sim.NewEngine(loose, shiftedOffsets, matrixNetwork(d1), nodes)
		if err != nil {
			return nil, err
		}
		for i, inv := range sc.Rho {
			engP.InvokeAt(0, simtime.Time(simtime.Duration(i)*gap), inv.Op, inv.Arg)
		}
		prefix := engP.Run()
		r2, err = shift.Append(prefix, frag)
		if err != nil {
			return nil, fmt.Errorf("lowerbound: appending ρ failed: %w", err)
		}
	}
	res := lincheck.CheckTrace(dt, r2)
	rep.ViolationFound = !res.Linearizable
	if rep.ViolationFound {
		rep.logf("R2 is NOT linearizable: the discriminators disagree on which %s came first", sc.Op)
	} else {
		rep.logf("R2 remains linearizable: budget sum %v ≥ d+m = %v", budget, p.D+m)
	}
	rep.logf("history: %s", formatOps(r2.CompletedOps()))
	return rep, nil
}

// indexOfSeq finds the index in tr.Ops with the given SeqID.
func indexOfSeq(tr *sim.Trace, seqID int64) int {
	for i, rec := range tr.Ops {
		if rec.SeqID == seqID {
			return i
		}
	}
	panic(fmt.Sprintf("lowerbound: seq %d not in trace", seqID))
}
