package quorum

import (
	"testing"

	"lintime/internal/adt"
	"lintime/internal/lincheck"
	"lintime/internal/sim"
	"lintime/internal/simtime"
)

const tick = simtime.Quantum

func params(n int) simtime.Params {
	return simtime.Params{N: n, D: 8 * tick, U: 4 * tick, Epsilon: 0, X: 0}
}

func newEngine(t *testing.T, p simtime.Params, net sim.Network, cfg Config) *sim.Engine {
	t.Helper()
	eng, err := sim.NewEngine(p, sim.ZeroOffsets(p.N), net, NewReplicas(p.N, 0, cfg))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func checkLin(t *testing.T, tr *sim.Trace) {
	t.Helper()
	if err := tr.CheckAdmissible(); err != nil {
		t.Fatalf("inadmissible: %v", err)
	}
	res := lincheck.CheckTrace(adt.NewRegister(0), tr)
	if !res.Linearizable {
		t.Fatalf("not linearizable:\n%+v", tr.Ops)
	}
}

// TestWriteThenRead pins the basic protocol: a write then a later read
// sees the written value, each operation takes two round trips (4d at
// uniform maximum delay), and the message counts are the deterministic
// 2(n-1) requests + 2(n-1) acks per operation.
func TestWriteThenRead(t *testing.T) {
	p := params(3)
	eng := newEngine(t, p, sim.UniformNetwork{D: p.D}, DefaultConfig(p))
	wr := eng.InvokeAt(0, 0, OpWrite, 7)
	rd := eng.InvokeAt(1, simtime.Time(5*p.D), OpRead, nil)
	tr := eng.Run()
	checkLin(t, tr)
	if err := tr.CheckComplete(); err != nil {
		t.Fatal(err)
	}
	for _, op := range tr.Ops {
		if got := op.Latency(); got != 4*p.D {
			t.Errorf("op %d latency %v, want 4d=%v", op.SeqID, got, 4*p.D)
		}
		switch op.SeqID {
		case wr:
			if op.Ret != nil {
				t.Errorf("write returned %v, want nil", op.Ret)
			}
		case rd:
			if op.Ret != 7 {
				t.Errorf("read returned %v, want 7", op.Ret)
			}
		}
	}
	if want := 2 * (2*(p.N-1) + 2*(p.N-1)); len(tr.Msgs) != want {
		t.Errorf("%d messages, want %d", len(tr.Msgs), want)
	}
}

// TestReadSurvivesMinorityCrash pins availability: with ⌈n/2⌉-1
// processes crashed at time 0, operations at live processes still
// terminate and linearizability holds.
func TestReadSurvivesMinorityCrash(t *testing.T) {
	p := params(3)
	eng := newEngine(t, p, sim.UniformNetwork{D: p.D}, DefaultConfig(p))
	if err := eng.SetFaults(sim.FaultPlan{
		Crashes: []simtime.Time{simtime.Infinity, simtime.Infinity, 0},
	}); err != nil {
		t.Fatal(err)
	}
	eng.InvokeAt(0, 0, OpWrite, 3)
	eng.InvokeAt(1, simtime.Time(5*p.D), OpRead, nil)
	tr := eng.Run()
	checkLin(t, tr)
	if err := tr.CheckComplete(); err != nil {
		t.Fatal(err)
	}
	if tr.Ops[1].Ret != 3 {
		t.Errorf("read returned %v after minority crash, want 3", tr.Ops[1].Ret)
	}
	// Requests to the crashed process are sent but never processed: the
	// trace marks them dropped.
	dropped := 0
	for _, m := range tr.Msgs {
		if m.Dropped {
			dropped++
			if m.To != 2 {
				t.Errorf("message %d dropped at p%d, only p2 crashed", m.ID, m.To)
			}
		}
	}
	if dropped != 4 { // 2 phases x 1 request per op, 2 ops
		t.Errorf("%d dropped messages, want 4", dropped)
	}
}

// TestCrashedInitiatorLeavesNoPendingOp pins that an invocation
// scheduled at a crashed process is suppressed entirely: a crashed
// process cannot start an operation, so no phantom pending op may reach
// the checker.
func TestCrashedInitiatorLeavesNoPendingOp(t *testing.T) {
	p := params(3)
	eng := newEngine(t, p, sim.UniformNetwork{D: p.D}, DefaultConfig(p))
	if err := eng.SetFaults(sim.FaultPlan{
		Crashes: []simtime.Time{simtime.Infinity, simtime.Infinity, 0},
	}); err != nil {
		t.Fatal(err)
	}
	eng.InvokeAt(0, 0, OpWrite, 3)
	eng.InvokeAt(2, simtime.Time(p.D), OpWrite, 9) // suppressed: p2 crashed at 0
	tr := eng.Run()
	if len(tr.Ops) != 1 {
		t.Fatalf("%d op records, want 1 (crashed invocation must leave none)", len(tr.Ops))
	}
	if err := tr.CheckCompleteExceptCrashed(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMidPhaseLeavesOpPending pins the crash-completeness rule: a
// process crashing between its own phases leaves its operation pending,
// which CheckComplete rejects and CheckCompleteExceptCrashed accepts.
func TestCrashMidPhaseLeavesOpPending(t *testing.T) {
	p := params(3)
	eng := newEngine(t, p, sim.UniformNetwork{D: p.D}, DefaultConfig(p))
	if err := eng.SetFaults(sim.FaultPlan{
		Crashes: []simtime.Time{simtime.Time(p.D), simtime.Infinity, simtime.Infinity},
	}); err != nil {
		t.Fatal(err)
	}
	eng.InvokeAt(0, 0, OpWrite, 3)
	eng.InvokeAt(1, simtime.Time(6*p.D), OpRead, nil)
	tr := eng.Run()
	checkLin(t, tr)
	if err := tr.CheckComplete(); err == nil {
		t.Fatal("CheckComplete passed with the initiator crashed mid-operation")
	}
	if err := tr.CheckCompleteExceptCrashed(); err != nil {
		t.Fatal(err)
	}
	if !tr.Ops[0].Pending() {
		t.Error("crashed initiator's write completed")
	}
}

// TestRetransmitRecoversFromLoss pins the retransmission path: dropping
// a phase-1 request still terminates (the 3d timer rebroadcasts) and the
// run stays linearizable, at a latency above the loss-free 4d.
func TestRetransmitRecoversFromLoss(t *testing.T) {
	p := params(2)
	eng := newEngine(t, p, sim.UniformNetwork{D: p.D}, DefaultConfig(p))
	// Message ordinal 0 is p0's first QueryReq to p1; at n=2 the quorum
	// is 2, so the phase stalls until the retransmission at 3d.
	if err := eng.SetFaults(sim.FaultPlan{Drops: []int64{0}}); err != nil {
		t.Fatal(err)
	}
	eng.InvokeAt(0, 0, OpWrite, 5)
	tr := eng.Run()
	checkLin(t, tr)
	if err := tr.CheckComplete(); err != nil {
		t.Fatal(err)
	}
	got := tr.Ops[0].Latency()
	if got <= 4*p.D {
		t.Errorf("latency %v with a dropped request, want > 4d", got)
	}
	if !tr.Msgs[0].Dropped || tr.Msgs[0].Received() {
		t.Errorf("message 0 not recorded as lost in transit: %+v", tr.Msgs[0])
	}
}

// TestLossFreeRunsNeverRetransmit pins that without faults every phase
// completes before its 3d timer, so a loss-free operation sends the same
// messages however its delays fall: the count bmc measures from a solo run.
func TestLossFreeRunsNeverRetransmit(t *testing.T) {
	p := params(5)
	eng := newEngine(t, p, sim.UniformNetwork{D: p.D}, DefaultConfig(p))
	for i := 0; i < p.N; i++ {
		eng.InvokeAt(sim.ProcID(i), simtime.Time(i)*simtime.Time(tick), OpWrite, i)
	}
	tr := eng.Run()
	checkLin(t, tr)
	want := p.N * (2*(p.N-1) + 2*(p.N-1))
	if len(tr.Msgs) != want {
		t.Errorf("%d messages for %d concurrent writes, want %d (no retransmissions)", len(tr.Msgs), p.N, want)
	}
}

// TestConcurrentWritesTotallyOrdered pins the tag tie-break: concurrent
// writes that draw equal timestamps are ordered by process id, so a
// subsequent read sees the higher process's value at every replica.
func TestConcurrentWritesTotallyOrdered(t *testing.T) {
	p := params(2)
	eng := newEngine(t, p, sim.UniformNetwork{D: p.D}, DefaultConfig(p))
	eng.InvokeAt(0, 0, OpWrite, 10)
	eng.InvokeAt(1, 0, OpWrite, 20)
	eng.InvokeAt(0, simtime.Time(6*p.D), OpRead, nil)
	eng.InvokeAt(1, simtime.Time(6*p.D), OpRead, nil)
	tr := eng.Run()
	checkLin(t, tr)
	var reads []any
	for _, op := range tr.Ops {
		if op.Op == OpRead {
			reads = append(reads, op.Ret)
		}
	}
	if len(reads) != 2 || reads[0] != reads[1] {
		t.Fatalf("probe reads disagree after concurrent equal-TS writes: %v", reads)
	}
	if reads[0] != 20 {
		t.Errorf("reads returned %v, want 20 (tag tie-break by process id)", reads[0])
	}
}

// TestStaleTieBreakDiverges demonstrates the mutant the tie-break
// prevents: under TS-only comparison the same schedule leaves the
// replicas disagreeing, which the probe reads expose as a
// non-linearizable history.
func TestStaleTieBreakDiverges(t *testing.T) {
	p := params(2)
	cfg := DefaultConfig(p)
	cfg.TSOnlyTieBreak = true
	eng := newEngine(t, p, sim.UniformNetwork{D: p.D}, cfg)
	eng.InvokeAt(0, 0, OpWrite, 10)
	eng.InvokeAt(1, 0, OpWrite, 20)
	eng.InvokeAt(0, simtime.Time(6*p.D), OpRead, nil)
	eng.InvokeAt(1, simtime.Time(6*p.D), OpRead, nil)
	tr := eng.Run()
	res := lincheck.CheckTrace(adt.NewRegister(0), tr)
	if res.Linearizable {
		t.Fatal("stale-tiebreak mutant produced a linearizable history on the divergence schedule")
	}
}

// TestQuorumOverThresholdStalls pins the flip side of availability: with
// a majority crashed the correct protocol cannot terminate (it keeps
// retransmitting); the crash-threshold mutant terminates and is exactly
// what quorum intersection forbids.
func TestQuorumOverThresholdStalls(t *testing.T) {
	p := params(3)
	eng := newEngine(t, p, sim.UniformNetwork{D: p.D}, DefaultConfig(p))
	if err := eng.SetFaults(sim.FaultPlan{
		Crashes: []simtime.Time{simtime.Infinity, 0, 0},
	}); err != nil {
		t.Fatal(err)
	}
	eng.InvokeAt(0, 0, OpWrite, 1)
	tr := eng.RunUntil(simtime.Time(20 * p.D))
	if err := tr.CheckCompleteExceptCrashed(); err == nil {
		t.Fatal("write at the live minority terminated without a quorum")
	}
}
