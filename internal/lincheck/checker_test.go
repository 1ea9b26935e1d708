package lincheck

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// fuzzSizedHistory draws a history the size the verification pipeline
// checks (1..maxOps operations over three processes): random overlapping
// intervals, one op in eight pending, and returns taken from a state a
// few random steps from the initial one — plausible, mostly not legal.
func fuzzSizedHistory(rng *rand.Rand, dt spec.DataType, maxOps int) []Op {
	infos := dt.Ops()
	pick := func() (string, spec.Value) {
		info := infos[rng.Intn(len(infos))]
		return info.Name, info.Args[rng.Intn(len(info.Args))]
	}
	h := make([]Op, 1+rng.Intn(maxOps))
	for i := range h {
		op := Op{ID: i, Proc: i % 3, Invoke: simtime.Time(rng.Intn(16))}
		op.Name, op.Arg = pick()
		if dur := rng.Intn(8); dur == 7 {
			op.Respond = simtime.Infinity
		} else {
			op.Respond = op.Invoke.Add(simtime.Duration(dur))
			st := dt.Initial()
			for k := rng.Intn(3); k > 0; k-- {
				name, arg := pick()
				_, st = st.Apply(name, arg)
			}
			op.Ret, _ = st.Apply(op.Name, op.Arg)
		}
		h[i] = op
	}
	return h
}

// sameResult requires the Checker's result to equal the reference's in
// verdict, witness and Explored.
func sameResult(t *testing.T, what string, got, want Result, h []Op) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: got %+v, reference %+v\nhistory: %+v", what, got, want, h)
	}
}

// TestCheckerMatchesReferenceSearch is the differential test of the
// cross-history tables: 20 000 seeded histories over three types, each
// type through ONE long-lived Checker, every Result compared with the
// pre-Checker search (reference_test.go) and with a fresh Checker.
func TestCheckerMatchesReferenceSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	types := []spec.DataType{adt.NewQueue(), adt.NewRegister(0), adt.NewCounter()}
	checkers := make([]*Checker, len(types))
	for i, dt := range types {
		checkers[i] = NewChecker(dt)
	}
	lin, pending := 0, 0
	const total = 20000
	for i := 0; i < total; i++ {
		dt, c := types[i%len(types)], checkers[i%len(types)]
		h := fuzzSizedHistory(rng, dt, 7)
		want := oldCheck(dt, h)
		sameResult(t, fmt.Sprintf("history %d, pooled Checker", i), c.Check(h), want, h)
		sameResult(t, fmt.Sprintf("history %d, Check", i), Check(dt, h), want, h)
		if i%16 == 0 {
			sameResult(t, fmt.Sprintf("history %d, CheckParallel", i), CheckParallel(dt, h, 4), oldCheckParallel(dt, h, 4), h)
		}
		if want.Linearizable {
			lin++
		}
		for _, op := range h {
			if op.Pending() {
				pending++
				break
			}
		}
	}
	if lin < total/10 || lin > total/2 || pending < total/10 {
		t.Fatalf("stream is not the intended mix: %d of %d linearizable, %d with a pending op", lin, total, pending)
	}
}

// TestCheckerTableReset runs a stream that outgrows the Checker's
// spec.Table: every history writes a value never seen before, so each adds
// a state and a kind, and the stream is longer than the table's 1<<16
// state cap (spec's TestTableTrim pins that the tables are dropped on the
// way). Results must not move.
func TestCheckerTableReset(t *testing.T) {
	dt := adt.NewRegister(0)
	c := NewChecker(dt)
	rng := rand.New(rand.NewSource(3))
	const tableCap = 1 << 16
	for i := 0; i < tableCap+tableCap/16; i++ {
		v := 1000 + i
		h := []Op{
			{ID: 0, Name: adt.OpWrite, Arg: v, Invoke: 0, Respond: 4},
			{ID: 1, Name: adt.OpRead, Ret: v, Invoke: 2, Respond: 6},
			{ID: 2, Name: adt.OpRead, Ret: v - i%2, Invoke: 8, Respond: 9}, // stale every other time
		}
		if i%64 == 0 {
			h = fuzzSizedHistory(rng, dt, 7)
		}
		sameResult(t, fmt.Sprintf("history %d", i), c.Check(h), oldCheck(dt, h), h)
	}
}

// sliceSum is a data type whose arguments cannot be map keys: addall takes
// a []int, addboxed a struct hiding one behind an interface field.
type sliceSum struct{}

type boxed struct{ V any }

func (sliceSum) Name() string { return "slicesum" }
func (sliceSum) Ops() []spec.OpInfo {
	return []spec.OpInfo{{Name: "addall", Args: []spec.Value{[]int{1}}}, {Name: "sum", Args: []spec.Value{nil}}}
}
func (sliceSum) Initial() spec.State { return sumState(0) }

type sumState int

func (s sumState) Apply(op string, arg spec.Value) (spec.Value, spec.State) {
	if b, ok := arg.(boxed); ok {
		arg = b.V
	}
	switch op {
	case "addall", "addboxed":
		for _, v := range arg.([]int) {
			s += sumState(v)
		}
		return nil, s
	default:
		return int(s), s
	}
}
func (s sumState) Fingerprint() string { return fmt.Sprint("sum:", int(s)) }

// TestCheckerNonComparableArgs: arguments that would panic as map keys
// (spec's TestTableKinds pins which of them share a kind) and the keyed
// family's struct arguments check exactly as the reference search does.
func TestCheckerNonComparableArgs(t *testing.T) {
	dt := sliceSum{}
	c := NewChecker(dt)
	for _, tc := range []struct {
		a, b spec.Value
		sum  int
	}{
		{[]int{1, 2}, []int{3}, 6},
		{[]int{1, 2}, []int{1, 2}, 6}, // same kind twice; 6 is not reachable
		{[]int{3}, boxed{[]int{1, 2}}, 6},
		{boxed{[]int{4}}, boxed{[]int{4}}, 8},
		{[]int{}, []int(nil), 0},
	} {
		h := []Op{
			{ID: 0, Name: "addall", Arg: tc.a, Invoke: 0, Respond: 10},
			{ID: 1, Name: "addboxed", Arg: tc.b, Invoke: 5, Respond: 15},
			{ID: 2, Name: "sum", Ret: tc.sum, Invoke: 20, Respond: 25},
		}
		sameResult(t, fmt.Sprintf("%v + %v", tc.a, tc.b), c.Check(h), oldCheck(dt, h), h)
	}

	keyed := adt.NewKeyed(adt.NewQueue())
	kc := NewChecker(keyed)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		h := fuzzSizedHistory(rng, keyed, 7)
		sameResult(t, fmt.Sprintf("keyed history %d", i), kc.Check(h), oldCheck(keyed, h), h)
	}
}

// TestCheckerLongAndShortHistories drives one Checker across the memo's
// two key representations and back: histories of more than 64 operations
// (linearizable, and with one corrupted return), short ones between them,
// an empty and a pending-only one.
func TestCheckerLongAndShortHistories(t *testing.T) {
	dt := adt.NewQueue()
	c := NewChecker(dt)
	rng := rand.New(rand.NewSource(5))
	pendingOnly := []Op{
		{ID: 0, Name: adt.OpEnqueue, Arg: 1, Invoke: 0, Respond: simtime.Infinity},
		{ID: 1, Name: adt.OpDequeue, Invoke: 3, Respond: simtime.Infinity},
	}
	for round, n := range []int{100, 5, 64, 65, 200, 3, 129} {
		long := randomHistory(int64(round), n)
		bad := append([]Op(nil), long...)
		bad[n/2].Ret = 99
		for _, h := range [][]Op{long, fuzzSizedHistory(rng, dt, 7), bad, nil, pendingOnly} {
			sameResult(t, fmt.Sprintf("round %d, %d ops", round, len(h)), c.Check(h), oldCheck(dt, h), h)
		}
	}
	if got := c.Check(pendingOnly); !got.Linearizable || got.Linearization != nil || got.Explored != 1 {
		t.Errorf("pending-only history: %+v", got)
	}
}
