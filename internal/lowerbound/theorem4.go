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

// theorem4Matrix builds the D¹ delay matrix of the Theorem 4 proof
// (Figure 2): d-m into p0 (except from p1) and d-m out of p1 (except to
// p0), d everywhere else.
func theorem4Matrix(n int, d, m simtime.Duration) [][]simtime.Duration {
	mat := make([][]simtime.Duration, n)
	for i := range mat {
		mat[i] = make([]simtime.Duration, n)
		for j := range mat[i] {
			switch {
			case i == j:
			case i != 1 && j == 0:
				mat[i][j] = d - m
			case i == 1 && j != 0:
				mat[i][j] = d - m
			default:
				mat[i][j] = d
			}
		}
	}
	return mat
}

// matrixNetwork wraps a delay matrix as a sim.Network.
func matrixNetwork(m [][]simtime.Duration) *sim.PairwiseNetwork {
	return &sim.PairwiseNetwork{Delays: m}
}

// fastOOPTimers returns Algorithm 1 timers forcing mixed-operation latency
// to exactly budget (the hypothetical too-fast algorithm of Theorems 4
// and 5).
func fastOOPTimers(p simtime.Params, budget simtime.Duration) (core.Timers, error) {
	if budget < p.D-p.U {
		return core.Timers{}, fmt.Errorf("lowerbound: OOP budget %v below the d-u self-delay %v", budget, p.D-p.U)
	}
	t := core.DefaultTimers(p)
	t.ExecuteWait = budget - t.AddSelf
	return t, nil
}

// Theorem4 mechanizes the pair-free bound |OP| ≥ d + min{ε, u, d/3}
// (Theorem 4) on a FIFO queue with dequeue. See Theorem4For for other
// data types.
func Theorem4(p simtime.Params, budget simtime.Duration) (*Report, error) {
	sc, err := findScenario(4, Thm4Scenarios(), "queue")
	if err != nil {
		return nil, err
	}
	return Theorem4For(p, sc, budget)
}

// Theorem4On runs the Theorem 4 chain on the named data type's stock
// scenario.
func Theorem4On(p simtime.Params, typeName string, budget simtime.Duration) (*Report, error) {
	sc, err := findScenario(4, Thm4Scenarios(), typeName)
	if err != nil {
		return nil, err
	}
	return Theorem4For(p, sc, budget)
}

// Theorem4For mechanizes Theorem 4 for an arbitrary pair-free scenario,
// executing the proof's run chain: R1 (solo Op by p0 after ρ), R2 (adding
// a concurrent Op at p1), shift-and-chop to make both start together
// (R3), shift-and-chop again to make p0's start later (R4), and the final
// indistinguishability argument against the solo run R5 of p1.
//
// The chain's verdict: with |Op| < d+m the operations' recorded values
// admit no linearization — R4's pending Op at p1 is forced to the
// complementary value by the linearization order but forced to the solo
// value by physical indistinguishability from R5. The report's
// ViolationFound is true when every link of the chain (admissibility,
// chop validity, appendability, indistinguishability, and the two
// lincheck verdicts) holds.
func Theorem4For(p simtime.Params, sc Thm4Scenario, budget simtime.Duration) (*Report, error) {
	if p.N < 3 {
		return nil, fmt.Errorf("lowerbound: Theorem 4 demo needs n ≥ 3, got %d", p.N)
	}
	m := MinPairFree(p)
	if m <= 0 {
		return nil, fmt.Errorf("lowerbound: need m = min{ε,u,d/3} > 0")
	}
	rep := &Report{Theorem: "Theorem 4", DataType: sc.TypeName, Op: sc.Op,
		Budget: budget, Bound: p.D + m}
	timers, err := fastOOPTimers(p, budget)
	if err != nil {
		return nil, err
	}
	dt, err := adt.Lookup(sc.TypeName)
	if err != nil {
		return nil, err
	}
	solo, other, err := sc.values(dt)
	if err != nil {
		return nil, err
	}
	classes := classify.Classify(dt, classify.DefaultConfig()).Classes()

	c1 := make([]simtime.Duration, p.N)
	c1[1] = -m // C1 = (0, -m, 0, ...)
	c2 := make([]simtime.Duration, p.N)
	c0 := make([]simtime.Duration, p.N)
	c0[0] = -m // C0 = (-m, 0, ...)

	d1 := theorem4Matrix(p.N, p.D, m)
	// ρ executed by p0 starting at time 0; the pair-free instances start
	// at t, far past ρ's quiescence.
	gap := p.D + p.U + p.Epsilon
	t := simtime.Time(simtime.Duration(len(sc.Rho)+3) * gap)
	rhoCut := t.Add(-1)

	runRho := func(offsets []simtime.Duration) (*sim.Engine, []sim.Node) {
		nodes := core.NewReplicas(p.N, dt, classes, timers)
		eng, err := sim.NewEngine(p, offsets, matrixNetwork(d1), nodes)
		if err != nil {
			panic(err)
		}
		for i, inv := range sc.Rho {
			eng.InvokeAt(0, simtime.Time(simtime.Duration(i)*gap), inv.Op, inv.Arg)
		}
		return eng, nodes
	}

	// --- Step 1: R1 — solo dequeue by p0. ---
	eng1, _ := runRho(c1)
	op0Seq1 := eng1.InvokeAt(0, t, sc.Op, sc.OpArg)
	r1 := eng1.Run()
	if err := r1.CheckComplete(); err != nil {
		return nil, err
	}
	if !spec.ValuesEqual(opBySeq(r1, op0Seq1).Ret, solo) {
		rep.logf("R1: solo %s returned %v, not the solo value %v — chain broken",
			sc.Op, opBySeq(r1, op0Seq1).Ret, spec.FormatValue(solo))
		return rep, nil
	}
	rep.logf("R1: op0 = %s@p0[%v] returns %v with latency %v", sc.Op, t,
		spec.FormatValue(solo), opBySeq(r1, op0Seq1).Latency())

	// --- Step 2: R2 — add dequeue at p1 at t+m. ---
	eng2, _ := runRho(c1)
	op0Seq := eng2.InvokeAt(0, t, sc.Op, sc.OpArg)
	op1Seq := eng2.InvokeAt(1, t.Add(m), sc.Op, sc.OpArg)
	r2 := eng2.Run()
	if err := r2.CheckComplete(); err != nil {
		return nil, err
	}
	if err := r2.CheckAdmissible(); err != nil {
		return nil, err
	}
	if !spec.ValuesEqual(opBySeq(r2, op0Seq).Ret, solo) {
		rep.logf("R2: Claim 4 fails — op0 returned %v; p0 learned of op1 within d+m (budget ≥ bound)", opBySeq(r2, op0Seq).Ret)
		return rep, nil
	}
	if !spec.ValuesEqual(opBySeq(r2, op1Seq).Ret, other) {
		rep.logf("R2: op1 returned %v, not the pair-free complement %v — chain broken",
			opBySeq(r2, op1Seq).Ret, spec.FormatValue(other))
		return rep, nil
	}
	rep.logf("R2: op0 returns %v, op1' = %s@p1[%v] returns %v (Claim 4 holds)",
		spec.FormatValue(solo), sc.Op, t.Add(m), spec.FormatValue(other))

	// --- Step 3: shift p1 earlier by m and chop the invalid delay. ---
	s2 := shift.Suffix(r2, rhoCut)
	x := make([]simtime.Duration, p.N)
	x[1] = -m
	s2s, err := shift.Shift(s2, x)
	if err != nil {
		return nil, err
	}
	// Post-shift matrix: delays from p1 grow by m (p1→p0 becomes d+m,
	// invalid), delays into p1 shrink by m.
	m2 := shiftMatrix(d1, x)
	if bad := shift.InvalidPairs(m2, p); len(bad) != 1 || bad[0] != [2]sim.ProcID{1, 0} {
		return nil, fmt.Errorf("lowerbound: expected exactly p1→p0 invalid, got %v", bad)
	}
	s2c, err := shift.Chop(s2s, m2, p, p.D-m)
	if err != nil {
		return nil, err
	}
	if err := shift.CheckFragment(s2c); err != nil {
		return nil, err
	}
	if err := s2c.CheckAdmissible(); err != nil {
		return nil, fmt.Errorf("lowerbound: chopped fragment inadmissible: %w", err)
	}
	op1Rec, ok := findOp(s2c, 1, sc.Op)
	if !ok || op1Rec.Pending() {
		rep.logf("S2'': op1' did not survive the chop complete — budget %v does not beat the bound", budget)
		return rep, nil
	}
	op0Rec, _ := findOp(s2c, 0, sc.Op)
	rep.logf("S2'' = chop(shift(S2, (0,-m,0)), d-m): op1' complete (%v), op0 pending=%v", op1Rec.Ret, op0Rec.Pending())

	// --- Step 4: append to a ρ-run with offsets C2 and decide op0's
	// forced completion. ---
	engP, _ := runRho(c2)
	prefix2 := engP.Run()
	r3, err := shift.Append(prefix2, s2c)
	if err != nil {
		return nil, fmt.Errorf("lowerbound: append failed: %w", err)
	}
	// Linearizability forces the pending op0 to complete with the solo
	// value (as in R1): the complementary value admits no linearization.
	withSolo := completePending(r3, 0, sc.Op, solo, budget)
	withOther := completePending(r3, 0, sc.Op, other, budget)
	okSolo := lincheck.CheckTrace(dt, withSolo).Linearizable
	okOther := lincheck.CheckTrace(dt, withOther).Linearizable
	if !okSolo || okOther {
		rep.logf("R3: completion analysis inconclusive (solo→%v, other→%v) — chain broken", okSolo, okOther)
		return rep, nil
	}
	rep.logf("R3 = ρ·S2'': linearizability forces op0 = %v (%v admits no linearization)",
		spec.FormatValue(solo), spec.FormatValue(other))
	r3 = withSolo

	// --- Step 5: shift p0 later by m and chop again. ---
	s3 := shift.Suffix(r3, rhoCut)
	y := make([]simtime.Duration, p.N)
	y[0] = m
	s3s, err := shift.Shift(s3, y)
	if err != nil {
		return nil, err
	}
	m3 := copyMatrix(m2)
	m3[1][0] = p.D - m // Step 4's repair of the p1→p0 delay
	m4 := shiftMatrix(m3, y)
	bad := shift.InvalidPairs(m4, p)
	if len(bad) == 0 {
		// The proof's Step 5 asserts the p0→p1 delay d-2m is invalid,
		// which requires 2m > u. When m = min{ε, u, d/3} ≤ u/2 the
		// shifted run is fully admissible, p1's view legitimately
		// includes op0's announcement, and the written construction
		// yields no contradiction — a gap in the published proof's
		// generality that this mechanization surfaces.
		rep.logf("S3': p0→p1 delay d-2m = %v is still admissible (2m ≤ u); the written proof does not apply in this regime", m4[0][1])
		return rep, nil
	}
	if len(bad) != 1 || bad[0] != [2]sim.ProcID{0, 1} {
		return nil, fmt.Errorf("lowerbound: expected exactly p0→p1 invalid, got %v", bad)
	}
	s3c, err := shift.Chop(s3s, m4, p, p.D-m)
	if err != nil {
		return nil, err
	}
	if err := shift.CheckFragment(s3c); err != nil {
		return nil, err
	}
	op0Rec4, ok := findOp(s3c, 0, sc.Op)
	if !ok || op0Rec4.Pending() {
		rep.logf("S3'': op0 did not survive the chop complete — budget %v does not beat the bound", budget)
		return rep, nil
	}
	op1Rec4, _ := findOp(s3c, 1, sc.Op)
	if !op1Rec4.Pending() {
		rep.logf("S3'': op1 unexpectedly complete — chain broken")
		return rep, nil
	}
	rep.logf("S3'' = chop(shift(S3, (+m,0,0)), d-m): op0 complete (%v), op1 pending", spec.FormatValue(solo))

	// --- Step 6: append to a ρ-run with offsets C0 → R4. ---
	engP0, _ := runRho(c0)
	prefix0 := engP0.Run()
	r4, err := shift.Append(prefix0, s3c)
	if err != nil {
		return nil, fmt.Errorf("lowerbound: second append failed: %w", err)
	}
	// Linearizability of R4 forces op1 to complete with the complement
	// (op0 = solo is already fixed; a second solo value is impossible).
	r4withSolo := completePending(r4, 1, sc.Op, solo, budget)
	r4withOther := completePending(r4, 1, sc.Op, other, budget)
	okSolo = lincheck.CheckTrace(dt, r4withSolo).Linearizable
	okOther = lincheck.CheckTrace(dt, r4withOther).Linearizable
	if okSolo || !okOther {
		rep.logf("R4: completion analysis inconclusive (solo→%v, other→%v) — chain broken", okSolo, okOther)
		return rep, nil
	}
	rep.logf("R4 = ρ·S3'': linearizability forces op1 = %v", spec.FormatValue(other))

	// --- Step 7: indistinguishability from the solo run R5. ---
	// R4's extension repairs the p0→p1 delay to d (Figure 7). The
	// earliest any information about op0 (invoked at its shifted time)
	// can reach p1 is op0's invocation plus the shortest path from p0 to
	// p1 over the repaired delays; if op1 responds strictly earlier, p1's
	// view matches R5, where it runs op1 solo and returns 5 —
	// contradicting the forced "empty".
	op1Invoke := op1Rec4.InvokeTime
	window := op1Invoke.Add(budget)
	m5 := copyMatrix(m4)
	m5[0][1] = p.D // Step 6's repair of the p0→p1 delay
	earliestLearn := op0Rec4.InvokeTime.Add(shift.ShortestPaths(m5)[0][1])
	if window >= earliestLearn {
		rep.logf("R4: p1 can hear about op0 by %v, at or before its response at %v — indistinguishability fails (budget respects the bound)",
			earliestLearn, window)
		return rep, nil
	}
	for _, msg := range r4.Msgs { // sanity: the fragment itself carries no leak either
		if msg.To == 1 && msg.Received() && msg.RecvTime >= op1Invoke && msg.RecvTime <= window &&
			msg.SendTime >= op0Rec4.InvokeTime {
			return nil, fmt.Errorf("lowerbound: fragment leaks op0 to p1 at %v (construction bug)", msg.RecvTime)
		}
	}
	eng5, _ := runRho(c0)
	op1Solo := eng5.InvokeAt(1, op1Invoke, sc.Op, sc.OpArg)
	r5 := eng5.Run()
	if err := r5.CheckComplete(); err != nil {
		return nil, err
	}
	soloVal := opBySeq(r5, op1Solo).Ret
	if !spec.ValuesEqual(soloVal, solo) {
		rep.logf("R5: solo %s at p1 returned %v, not %v — chain broken", sc.Op, soloVal, spec.FormatValue(solo))
		return rep, nil
	}
	rep.logf("R5: p1 running solo returns %v; R4's p1 is indistinguishable from R5 through its response",
		spec.FormatValue(solo))
	rep.logf("CONTRADICTION: op1 must return %v (linearizability of R4) and %v (indistinguishability from R5)",
		spec.FormatValue(other), spec.FormatValue(solo))
	rep.ViolationFound = true
	return rep, nil
}

// findOp locates the record of the named op invoked at proc in the trace.
func findOp(tr *sim.Trace, proc sim.ProcID, op string) (sim.OpRecord, bool) {
	for _, rec := range tr.Ops {
		if rec.Proc == proc && rec.Op == op {
			return rec, true
		}
	}
	return sim.OpRecord{}, false
}

// completePending returns a copy of tr with the pending instance of op at
// proc completed with the given return value (response = invoke+latency).
func completePending(tr *sim.Trace, proc sim.ProcID, op string, ret any, latency simtime.Duration) *sim.Trace {
	out := tr.Clone()
	for i := range out.Ops {
		if out.Ops[i].Proc == proc && out.Ops[i].Op == op && out.Ops[i].Pending() {
			out.Ops[i].Ret = ret
			out.Ops[i].RespondTime = out.Ops[i].InvokeTime.Add(latency)
		}
	}
	return out
}

// shiftMatrix applies Theorem 1(2) to a delay matrix: δ_ij - x_i + x_j.
func shiftMatrix(m [][]simtime.Duration, x []simtime.Duration) [][]simtime.Duration {
	out := copyMatrix(m)
	for i := range out {
		for j := range out[i] {
			if i == j {
				continue
			}
			out[i][j] = m[i][j] - x[i] + x[j]
		}
	}
	return out
}

func copyMatrix(m [][]simtime.Duration) [][]simtime.Duration {
	out := make([][]simtime.Duration, len(m))
	for i := range m {
		out[i] = append([]simtime.Duration(nil), m[i]...)
	}
	return out
}
