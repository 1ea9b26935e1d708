package lowerbound

import (
	"fmt"

	"lintime/internal/bounds"
	"lintime/internal/core"
	"lintime/internal/lincheck"
	"lintime/internal/shift"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// Theorem5 mechanizes the transposable-mutator + discriminating-accessor
// sum bound |OP| + |AOP| ≥ d + min{ε, u, d/3} (Theorem 5) on the named
// data type's stock scenario (Thm5Scenarios; the queue's is the paper's
// own example pair, enqueue and peek).
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
func Theorem5(p simtime.Params, typeName string, budgetOp, budgetAop simtime.Duration) (*Report, error) {
	sc, err := findScenario(5, Thm5Scenarios(), typeName)
	if err != nil {
		return nil, err
	}
	if p.N < 3 {
		return nil, fmt.Errorf("lowerbound: Theorem 5 demo needs n ≥ 3, got %d", p.N)
	}
	m := bounds.MinPairFree(p)
	if m <= 0 {
		return nil, fmt.Errorf("lowerbound: need m = min{ε,u,d/3} > 0")
	}
	budget := budgetOp + budgetAop
	rep := &Report{Theorem: "Theorem 5", DataType: sc.TypeName, Op: sc.Op + "+" + sc.AOP,
		Budget: budget, Bound: bounds.SumDiscriminated(p).Value}
	if budgetAop < 1 || budgetOp < 1 {
		return nil, fmt.Errorf("lowerbound: budgets must be positive")
	}
	timers := core.DefaultTimers(p)
	timers.MOPRespond = budgetOp
	timers.AOPRespond = budgetAop
	timers.AOPBackdate = 0
	// D of the proof (Figure 8): d-m into p0 and p1, d everywhere else.
	kt, err := newKit(p, rep, timers, delays(p.N, p.D, m, func(_, j int) bool { return j <= 1 }))
	if err != nil {
		return nil, err
	}
	// ρ's mutators (forced to budgetOp) run one at a time at p0.
	gap := simtime.Max(p.D+p.U+p.Epsilon, budgetOp+1)
	t := simtime.Time(simtime.Duration(len(sc.Rho)+1) * gap)
	tMax := t.Add(budgetOp)
	rho := prefix(sc.Rho, gap)
	aop := spec.Invocation{Op: sc.AOP, Arg: sc.AOPArg}
	op1, aop1, aop2 := call{1, t, spec.Invocation{Op: sc.Op, Arg: sc.Op1Arg}}, call{1, tMax, aop}, call{2, tMax.Add(m), aop}

	// --- R1: the full concurrent scenario. ---
	r1, recs, err := kt.execute(nil, append(rho, call{0, t, spec.Invocation{Op: sc.Op, Arg: sc.Op0Arg}}, op1, call{0, tMax, aop}, aop1, aop2))
	if err != nil {
		return nil, err
	}
	recs = recs[len(rho):]
	rep.logf("R1: %s(%s)@p0 and %s(%s)@p1 at %v; %s at p0/p1 (%v) and p2 (%v): values %v/%v/%v",
		sc.Op, spec.FormatValue(sc.Op0Arg), sc.Op, spec.FormatValue(sc.Op1Arg), t,
		sc.AOP, tMax, tMax.Add(m), recs[2].Ret, recs[3].Ret, recs[4].Ret)
	if !lincheck.CheckTrace(kt.dt, r1).Linearizable {
		rep.ViolationFound = true
		return rep.stop("R1 itself is not linearizable — the too-fast algorithm already fails without shifting")
	}

	// --- Shift p0 later by m (the p0→p1 delay becomes d-2m) and chop at
	// δ = d-m. The shift and chop apply to the suffix after ρ; the prefix
	// is re-attached below with matching offsets, per the proof's append
	// step. ---
	s1, m2, err := kt.shiftChop(r1, t.Add(-1), kt.net.Delays, single(p.N, 0, m), [2]sim.ProcID{0, 1}, "shifted p0→p1 delay d-2m", m)
	if s1 == nil {
		return rep.or(err)
	}
	// Claim 8 (mirrored): op0, op1, aop0, aop2 survive complete; aop1 is
	// chopped pending.
	op0Rec, op0OK := completed(s1, 0, sc.Op)
	_, op1OK := completed(s1, 1, sc.Op)
	aop0Rec, aop0OK := completed(s1, 0, sc.AOP)
	aop2Rec, aop2OK := completed(s1, 2, sc.AOP)
	if !op0OK || !op1OK || !aop0OK || !aop2OK {
		return rep.stop("chop removed a required operation (op0=%v op1=%v aop0=%v aop2=%v) — budget does not beat the bound",
			op0OK, op1OK, aop0OK, aop2OK)
	}
	if _, ok := completed(s1, 1, sc.AOP); ok {
		return rep.stop("aop1 survived the chop complete — budget does not beat the bound")
	}
	if _, ok := findOp(s1, 1, sc.AOP); !ok {
		return rep.stop("aop1 was dropped entirely by the chop — budget does not beat the bound")
	}
	rep.logf("S1'' = chop(shift(S1, (+m,0,0)), d-m): op0 (%v), op1, aop0=%v, aop2=%v complete; aop1 pending",
		op0Rec.Ret, aop0Rec.Ret, aop2Rec.Ret)

	// --- Indistinguishability: p1 cannot learn of p0's (shifted)
	// invocation before its accessor responds, over the delays of R2's
	// extension. ---
	aop1Respond := tMax.Add(budgetAop)
	if learn := earliestLearn(m2, p.D, t.Add(m)); aop1Respond >= learn {
		return rep.stop("p1 can learn of op0 by %v, at or before aop1's response %v — indistinguishability fails (budget respects the bound)",
			learn, aop1Respond)
	}

	// --- Control run: p1's world without p0's operations. ---
	_, ctl, err := kt.execute(nil, append(rho, op1, aop1, aop2))
	if err != nil {
		return nil, err
	}
	ctlVal := ctl[len(rho)+1].Ret
	rep.logf("control (no p0): aop1 returns %v; R2's p1 is indistinguishable through its response", ctlVal)

	// --- Re-attach ρ (executed under the shifted offsets), complete aop1
	// with its physical value, and check. ---
	r2 := completePending(s1, 1, ctlVal, budgetAop)
	if len(rho) > 0 {
		pre, _, err := kt.execute(single(p.N, 0, -m), rho)
		if err != nil {
			return nil, err
		}
		if r2, err = shift.Append(pre, r2); err != nil {
			return nil, fmt.Errorf("lowerbound: appending ρ failed: %w", err)
		}
	}
	kt.judge(r2,
		fmt.Sprintf("R2 is NOT linearizable: the discriminators disagree on which %s came first", sc.Op),
		fmt.Sprintf("R2 remains linearizable: budget sum %v ≥ d+m = %v", budget, rep.Bound))
	return rep, nil
}
