package lowerbound

import (
	"fmt"

	"lintime/internal/adversary"
	"lintime/internal/bounds"
	"lintime/internal/core"
	"lintime/internal/shift"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// Theorem4 mechanizes the pair-free bound |OP| ≥ d + min{ε, u, d/3}
// (Theorem 4) on a pair-free op of the named type, from classify's
// witness: a prefix ρ after which two instances of op cannot follow each
// other. It executes the proof's run chain: R1 (solo Op by p0 after ρ), R2
// (adding a concurrent Op at p1), shift-and-chop to make both start together
// (R3), shift-and-chop again to make p0's start later (R4), and the final
// indistinguishability argument against the solo run R5 of p1.
//
// The hypothetical algorithm is Algorithm 1 with mixed-operation latency
// forced to exactly the budget. The chain's verdict: with |Op| < d+m the
// operations' recorded values admit no linearization — R4's pending Op
// at p1 is forced to the complementary value by the linearization order
// but forced to the solo value by physical indistinguishability from R5.
// The report's ViolationFound is true when every link of the chain
// (admissibility, chop validity, appendability, indistinguishability,
// and the two lincheck verdicts) holds.
func Theorem4(p simtime.Params, typeName, opName string, budget simtime.Duration) (*Report, error) {
	if p.N < 3 {
		return nil, fmt.Errorf("lowerbound: Theorem 4 demo needs n ≥ 3, got %d", p.N)
	}
	m := bounds.MinPairFree(p)
	if m <= 0 {
		return nil, fmt.Errorf("lowerbound: need m = min{ε,u,d/3} > 0")
	}
	rep := &Report{Theorem: "Theorem 4", DataType: typeName, Op: opName, Budget: budget, Bound: bounds.PairFree(p).Value}
	if budget < p.D-p.U {
		return nil, fmt.Errorf("lowerbound: OOP budget %v below the d-u self-delay %v", budget, p.D-p.U)
	}
	timers := core.DefaultTimers(p)
	timers.ExecuteWait = budget - timers.AddSelf
	// D¹ of the proof (Figure 2): d-m into p0 (except from p1) and out of
	// p1 (except to p0), d everywhere else.
	kt, err := newKit(p, rep, timers, delays(p.N, p.D, m, func(i, j int) bool { return (j == 0) != (i == 1) }))
	if err != nil {
		return nil, err
	}
	w, err := kt.scenario(4)
	if err != nil {
		return nil, err
	}
	op := spec.Invocation{Op: opName, Arg: w.Instances[0].Arg}
	solo, afterOne := spec.Replay(kt.dt.Initial(), w.Rho).Apply(op.Op, op.Arg)
	other := spec.Response(afterOne, op.Op, op.Arg)
	if spec.ValuesEqual(solo, other) {
		return nil, fmt.Errorf("lowerbound: %s.%s is not pair-free after ρ (both return %v)", typeName, opName, solo)
	}
	// Clock offsets C1 = (0, -m, 0, ...), C2 = 0 and C0 = (-m, 0, ...).
	c1, c0 := single(p.N, 1, -m), single(p.N, 0, -m)
	// ρ executed by p0 starting at time 0; the pair-free instances start
	// at t, far past ρ's quiescence.
	gap := p.D + p.U + p.Epsilon
	t := simtime.Time(simtime.Duration(len(w.Rho)+3) * gap)
	rhoCut := t.Add(-1)
	rho := rhoPlan(w.Rho, gap)
	op0At := at(t, op.Op, op.Arg)

	// --- Step 1: R1 — solo Op by p0. ---
	r1, err := kt.run(c1, append(rho, op0At))
	if err != nil {
		return nil, err
	}
	op0 := r1.OpsOf(0)[len(rho)]
	if !spec.ValuesEqual(op0.Ret, solo) {
		return rep.stop("R1: solo %s returned %v, not the solo value %v — chain broken",
			opName, op0.Ret, spec.FormatValue(solo))
	}
	rep.logf("R1: op0 = %s@p0[%v] returns %v with latency %v", opName, t, spec.FormatValue(solo), op0.Latency())

	// --- Step 2: R2 — add Op at p1 at t+m. ---
	r2, err := kt.run(c1, append(rho, op0At), []adversary.PlannedOp{at(t.Add(m), op.Op, op.Arg)})
	if err != nil {
		return nil, err
	}
	if op0 := r2.OpsOf(0)[len(rho)]; !spec.ValuesEqual(op0.Ret, solo) {
		return rep.stop("R2: Claim 4 fails — op0 returned %v; p0 learned of op1 within d+m (budget ≥ bound)", op0.Ret)
	}
	if op1 := r2.OpsOf(1)[0]; !spec.ValuesEqual(op1.Ret, other) {
		return rep.stop("R2: op1 returned %v, not the pair-free complement %v — chain broken",
			op1.Ret, spec.FormatValue(other))
	}
	rep.logf("R2: op0 returns %v, op1' = %s@p1[%v] returns %v (Claim 4 holds)",
		spec.FormatValue(solo), opName, t.Add(m), spec.FormatValue(other))

	// --- Step 3: shift p1 earlier by m and chop the invalid delay: delays
	// from p1 grow by m (p1→p0 becomes d+m), delays into p1 shrink. ---
	s2, m2, err := kt.shiftChop(r2, rhoCut, kt.net.Delays, single(p.N, 1, -m), [2]sim.ProcID{1, 0}, "S2': p1→p0 delay d+m", m)
	if s2 == nil {
		return rep.or(err)
	}
	op1Rec, ok := completed(s2, 1, opName)
	if !ok {
		return rep.stop("S2'': op1' did not survive the chop complete — budget %v does not beat the bound", budget)
	}
	op0Rec, _ := findOp(s2, 0, opName)
	rep.logf("S2'' = chop(shift(S2, (0,-m,0)), d-m): op1' complete (%v), op0 pending=%v", op1Rec.Ret, op0Rec.Pending())

	// --- Step 4: append to a ρ-run with clocks C2 = 0; linearizability
	// forces the pending op0 to the solo value (as in R1): the
	// complementary value admits no linearization. ---
	prefix2, err := kt.run(nil, rho)
	if err != nil {
		return nil, err
	}
	r3, err := shift.Append(prefix2, s2)
	if err != nil {
		return nil, fmt.Errorf("lowerbound: append failed: %w", err)
	}
	if r3 = kt.forced("R3", r3, 0, budget, solo, other, true); r3 == nil {
		return rep, nil
	}
	rep.logf("R3 = ρ·S2'': linearizability forces op0 = %v (%v admits no linearization)",
		spec.FormatValue(solo), spec.FormatValue(other))

	// --- Step 5: shift p0 later by m and chop again. ---
	m2[1][0] = p.D - m // Step 4's repair of the p1→p0 delay
	s3, m4, err := kt.shiftChop(r3, rhoCut, m2, single(p.N, 0, m), [2]sim.ProcID{0, 1}, "S3': p0→p1 delay d-2m", m)
	if s3 == nil {
		// The proof's Step 5 asserts the p0→p1 delay d-2m is invalid,
		// which requires 2m > u. When m = min{ε, u, d/3} ≤ u/2 the
		// shifted run is fully admissible, p1's view legitimately
		// includes op0's announcement, and the written construction
		// yields no contradiction — a gap in the published proof's
		// generality that this mechanization surfaces.
		return rep.or(err)
	}
	op0Rec4, ok := completed(s3, 0, opName)
	if !ok {
		return rep.stop("S3'': op0 did not survive the chop complete — budget %v does not beat the bound", budget)
	}
	op1Rec4, _ := findOp(s3, 1, opName)
	if !op1Rec4.Pending() {
		return rep.stop("S3'': op1 unexpectedly complete — chain broken")
	}
	rep.logf("S3'' = chop(shift(S3, (+m,0,0)), d-m): op0 complete (%v), op1 pending", spec.FormatValue(solo))

	// --- Step 6: append to a ρ-run with clocks C0 → R4, whose
	// linearizability forces op1 to the complement (op0 = solo is
	// already fixed; a second solo value is impossible). ---
	prefix0, err := kt.run(c0, rho)
	if err != nil {
		return nil, err
	}
	r4, err := shift.Append(prefix0, s3)
	if err != nil {
		return nil, fmt.Errorf("lowerbound: second append failed: %w", err)
	}
	if kt.forced("R4", r4, 1, budget, solo, other, false) == nil {
		return rep, nil
	}
	rep.logf("R4 = ρ·S3'': linearizability forces op1 = %v", spec.FormatValue(other))

	// --- Step 7: indistinguishability from the solo run R5. ---
	// R4's extension repairs the p0→p1 delay to d (Figure 7). If op1
	// responds strictly before any information about op0 (invoked at its
	// shifted time) can reach p1, p1's view matches R5, where it runs op1
	// solo and returns the solo value — contradicting the forced
	// complement.
	op1Invoke := op1Rec4.InvokeTime
	window := op1Invoke.Add(budget)
	learn := earliestLearn(m4, p.D, op0Rec4.InvokeTime)
	if window >= learn {
		return rep.stop("R4: p1 can hear about op0 by %v, at or before its response at %v — indistinguishability fails (budget respects the bound)",
			learn, window)
	}
	for _, msg := range r4.Msgs { // sanity: the fragment itself carries no leak either
		if msg.To == 1 && msg.Received() && msg.RecvTime >= op1Invoke && msg.RecvTime <= window &&
			msg.SendTime >= op0Rec4.InvokeTime {
			return nil, fmt.Errorf("lowerbound: fragment leaks op0 to p1 at %v (construction bug)", msg.RecvTime)
		}
	}
	r5, err := kt.run(c0, rho, []adversary.PlannedOp{at(op1Invoke, op.Op, op.Arg)})
	if err != nil {
		return nil, err
	}
	if soloVal := r5.OpsOf(1)[0].Ret; !spec.ValuesEqual(soloVal, solo) {
		return rep.stop("R5: solo %s at p1 returned %v, not %v — chain broken", opName, soloVal, spec.FormatValue(solo))
	}
	rep.logf("R5: p1 running solo returns %v; R4's p1 is indistinguishable from R5 through its response",
		spec.FormatValue(solo))
	rep.logf("CONTRADICTION: op1 must return %v (linearizability of R4) and %v (indistinguishability from R5)",
		spec.FormatValue(other), spec.FormatValue(solo))
	rep.ViolationFound = true
	return rep, nil
}
