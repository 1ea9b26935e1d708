package adversary

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/harness"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// TestReusedNodeSetsMatchFresh pins node-set reuse for every backend:
// schedules A, B, A run back to back through one kit — B starts from the
// nodes, compiled states and checker A left behind, and A again from B's
// — and each must produce exactly what a fresh Runner produces. A node
// whose Init misses a field, or a queue entry reused while a timer still
// refers to it, shows as a differing trace (operations or message
// payloads), verdict, fingerprint or signature. Quorum's A crashes a process and drops two messages, so its
// B also starts from a run that retransmitted and never finished at the
// crashed replica.
func TestReusedNodeSetsMatchFresh(t *testing.T) {
	p := simtime.DefaultParams(3)
	for _, alg := range harness.Algorithms() {
		dt := spec.DataType(adt.NewQueue())
		if alg == harness.AlgQuorum {
			dt = adt.NewRegister(0)
		}
		ops := opsFor(dt)
		a := randomCandidate(p, ops, 27, "reuse", 0, false).sched
		b := randomCandidate(p, ops, 27, "reuse", 1, false).sched
		if alg == harness.AlgQuorum {
			a.Crashes = []simtime.Time{simtime.Infinity, simtime.Infinity, simtime.Time(2 * p.D)}
			a.Drops = []int64{1, 4}
		}
		target := Target{Algorithm: alg}
		r := &Runner{Params: p, DT: dt, Target: target, Trace: sim.TraceOps}
		if err := r.resolve(); err != nil {
			t.Fatal(err)
		}
		k := r.take()
		var sigs []uint64
		for i, s := range []Schedule{a, b, a} {
			got, err := r.runOwned(k, s, sim.SequenceNetwork{Delays: s.Delays, Default: p.D})
			if err != nil {
				t.Fatalf("%s run %d: %v", alg, i, err)
			}
			want, err := (&Runner{Params: p, DT: dt, Target: target, Trace: sim.TraceOps}).Run(s)
			if err != nil {
				t.Fatalf("%s run %d, fresh: %v", alg, i, err)
			}
			if !reflect.DeepEqual(got.Check, want.Check) || !reflect.DeepEqual(got.Fingerprints, want.Fingerprints) ||
				got.Incomplete != want.Incomplete || got.Signature() != want.Signature() ||
				!reflect.DeepEqual(got.Trace.Ops, want.Trace.Ops) || !reflect.DeepEqual(got.Trace.Msgs, want.Trace.Msgs) {
				t.Errorf("%s run %d: reused node set %+v %v %v %#x\n\tops %v\n\tmsgs %v\nfresh %+v %v %v %#x\n\tops %v\n\tmsgs %v", alg, i,
					got.Check, got.Fingerprints, got.Incomplete, got.Signature(), got.Trace.Ops, got.Trace.Msgs,
					want.Check, want.Fingerprints, want.Incomplete, want.Signature(), want.Trace.Ops, want.Trace.Msgs)
			}
			sigs = append(sigs, got.Signature())
		}
		if sigs[0] == sigs[1] {
			t.Errorf("%s: schedules A and B run alike, so reuse is not exercised", alg)
		}
	}
}

// countingType counts, per transition of the wrapped data type, the
// Apply calls that compute it, and the initial states handed out: one per
// Table a campaign builds.
type countingType struct {
	spec.DataType
	applies  map[string]int // "fingerprint|op|arg" → calls
	initials int
}

func (c *countingType) Initial() spec.State {
	c.initials++
	return countingState{c.DataType.Initial(), c}
}

type countingState struct {
	spec.State
	c *countingType
}

func (s countingState) Apply(op string, arg spec.Value) (spec.Value, spec.State) {
	s.c.applies[fmt.Sprintf("%s|%s|%#v", s.Fingerprint(), op, arg)]++
	ret, next := s.State.Apply(op, arg)
	return ret, countingState{next, s.c}
}

// TestApplyOncePerEdge counts the data type's Apply calls under a
// 1 000-schedule campaign: the replicas and the checker both run on a
// kit's compiled states, so each distinct (state, kind) edge is computed
// at most once per Table built, and the tables are one per kit, however
// many executions it serves. (Classification is cached by type name and
// paid before counting starts.)
func TestApplyOncePerEdge(t *testing.T) {
	p := simtime.DefaultParams(3)
	queue := adt.NewQueue()
	harness.ClassesFor(queue)
	dt := &countingType{DataType: queue, applies: map[string]int{}}
	if !raceEnabled {
		// Without a collection the pool keeps every kit it is handed, so a
		// worker builds at most one per processor it runs on. (Under the
		// race detector the pool drops Puts at random.)
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	rep, err := Fuzz(Options{Params: p, DT: dt, Seed: 1, Budget: 1000, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 || rep.Schedules != 1000 {
		t.Fatalf("%d schedules, %d violations", rep.Schedules, len(rep.Violations))
	}
	if !raceEnabled && dt.initials > runtime.GOMAXPROCS(0) {
		t.Errorf("one worker built %d tables", dt.initials)
	}
	total := 0
	for edge, n := range dt.applies {
		total += n
		if n > dt.initials {
			t.Errorf("edge %s computed %d times by %d tables", edge, n, dt.initials)
		}
	}
	t.Logf("%d Apply calls over %d edges and %d tables: %.2f per execution",
		total, len(dt.applies), dt.initials, float64(total)/float64(rep.Schedules))
}

// TestEscapedTracesSurviveKitReuse pins the contract that lets replicas
// send payloads they own: a trace handed to a caller stays valid after
// its kit runs the next schedule. For every backend, the first outcome's
// message payloads must read the same after a second schedule ran on the
// same kit — a replica that recycled a payload it had already sent would
// show here as a rewritten message.
func TestEscapedTracesSurviveKitReuse(t *testing.T) {
	p := simtime.DefaultParams(3)
	for _, alg := range harness.Algorithms() {
		dt := spec.DataType(adt.NewQueue())
		if alg == harness.AlgQuorum {
			dt = adt.NewRegister(0)
		}
		r := &Runner{Params: p, DT: dt, Target: Target{Algorithm: alg}, Trace: sim.TraceOps}
		if err := r.resolve(); err != nil {
			t.Fatal(err)
		}
		k := r.take()
		var first *Outcome
		var before []string
		for i := 0; i < 2; i++ {
			s := randomCandidate(p, opsFor(dt), 41, "escape", i, false).sched
			out, err := r.runOwned(k, s, sim.SequenceNetwork{Delays: s.Delays, Default: p.D})
			if err != nil {
				t.Fatalf("%s run %d: %v", alg, i, err)
			}
			if i == 0 {
				first = out
				for _, m := range out.Trace.Msgs {
					before = append(before, fmt.Sprintf("%+v", m.Payload))
				}
			}
		}
		if len(before) == 0 {
			t.Fatalf("%s: the first schedule sent no message, so nothing escaped", alg)
		}
		for i, m := range first.Trace.Msgs {
			if got := fmt.Sprintf("%+v", m.Payload); got != before[i] {
				t.Errorf("%s: message %d payload %s after the kit's next run, was %s", alg, i, got, before[i])
			}
		}
	}
}

// TestPooledRandMatchesNewSource pins what makes pooling candidate
// generators invisible: a pooled generator reseeded to s draws exactly
// the stream of rand.New(rand.NewSource(s)), whatever its previous seed
// left behind — including a partly consumed Read buffer.
func TestPooledRandMatchesNewSource(t *testing.T) {
	buf := make([]byte, 3)
	for seed := int64(0); seed < 64; seed++ {
		s := harness.DeriveSeed(seed, "pooled")
		pooled, fresh := seededRand(s), rand.New(rand.NewSource(s))
		for i := 0; i < 1000; i++ {
			if got, want := pooled.Int63(), fresh.Int63(); got != want {
				t.Fatalf("seed %d draw %d: pooled %d, fresh %d", s, i, got, want)
			}
		}
		pooled.Read(buf)
		rngPool.Put(pooled)
	}
}

// TestBoundaryViolationsReplay pins that a campaign's stored violations
// own their schedules although every run is borrowed: each violation of
// a boundary-only campaign (schedules concretized from a rule's run)
// still replays to its kind after the kits ran every later schedule.
func TestBoundaryViolationsReplay(t *testing.T) {
	p := simtime.DefaultParams(3)
	opts := Options{Params: p, DT: adt.NewQueue(), Target: Target{Mutant: "exec-no-eps"}, Seed: 1, Budget: 256,
		Parallel: 2, Strategies: []string{StratBoundary}}
	rep, err := Fuzz(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) < 2 || rep.Violations[0].Index == opts.Budget-1 {
		t.Fatalf("%d violations: the campaign must store several, with runs after them", len(rep.Violations))
	}
	r := &Runner{Params: p, DT: opts.DT, Target: opts.Target}
	for _, v := range rep.Violations {
		out, err := r.Run(v.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Violation(); got != v.Kind {
			t.Errorf("violation at schedule %d replays to %q, want %q:\n%s", v.Index, got, v.Kind, v.Schedule)
		}
	}
}
