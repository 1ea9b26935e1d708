package lincheck

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// oldCheckForest runs the reference search (tree_reference_test.go) over the
// forest of the given histories.
func oldCheckForest(dt spec.DataType, forest ...[]Op) Result {
	t := newOldTree()
	for _, h := range forest {
		t.Add(h)
	}
	return t.Check(dt)
}

// checkForest runs Tree.Check over the forest of the given histories.
func checkForest(dt spec.DataType, forest ...[]Op) Result {
	t := NewTree()
	for _, h := range forest {
		t.Add(h)
	}
	return t.Check(dt)
}

// sameAsReference requires Tree.Check's Result to equal the reference's in
// verdict and Explored.
func sameAsReference(t *testing.T, what string, dt spec.DataType, forest ...[]Op) Result {
	t.Helper()
	got, want := checkForest(dt, forest...), oldCheckForest(dt, forest...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Tree.Check = %+v, reference %+v\nforest: %+v", what, got, want, forest)
	}
	return got
}

// TestTreeMatchesReferenceOnCorpora compares the two searches on every
// history of the FuzzCheck and FuzzCheckStrong corpora, alone and as the
// two branches of a forest with every other.
func TestTreeMatchesReferenceOnCorpora(t *testing.T) {
	q := adt.NewQueue()
	var histories [][]Op
	for _, dir := range []string{
		filepath.Join("testdata", "fuzz", "FuzzCheck"),
		filepath.Join("testdata", "fuzz", "FuzzCheckStrong"),
	} {
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) == 0 {
			t.Fatalf("reading corpus %s: %d entries, %v", dir, len(entries), err)
		}
		for _, e := range entries {
			data, err := decodeCorpusFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			histories = append(histories, decodeFuzzHistory(data))
		}
	}
	for i, a := range histories {
		sameAsReference(t, fmt.Sprintf("history %d", i), q, a)
		for j, b := range histories {
			sameAsReference(t, fmt.Sprintf("forest %d+%d", i, j), q, a, b)
		}
	}
}

// randomBaseHistory draws 1..maxOps operations over three processes with
// overlapping intervals, one in eight pending, and returns taken from a
// state a few random steps from the initial one.
func randomBaseHistory(rng *rand.Rand, dt spec.DataType, maxOps int) []Op {
	h := make([]Op, 0, maxOps+1)
	for n := 1 + rng.Intn(maxOps); n > 0; n-- {
		h = append(h, randomOp(rng, dt, len(h)))
	}
	return h
}

func randomOp(rng *rand.Rand, dt spec.DataType, id int) Op {
	infos := dt.Ops()
	pick := func() (string, spec.Value) {
		info := infos[rng.Intn(len(infos))]
		return info.Name, info.Args[rng.Intn(len(info.Args))]
	}
	op := Op{ID: id, Proc: rng.Intn(3), Invoke: simtime.Time(rng.Intn(12))}
	op.Name, op.Arg = pick()
	if rng.Intn(8) == 0 {
		op.Respond = simtime.Infinity
		return op
	}
	op.Respond = op.Invoke.Add(simtime.Duration(rng.Intn(7)))
	st := dt.Initial()
	for k := rng.Intn(3); k > 0; k-- {
		name, arg := pick()
		_, st = st.Apply(name, arg)
	}
	op.Ret, _ = st.Apply(op.Name, op.Arg)
	return op
}

// randomForest draws two or three branches that share a prefix: each
// branch after the first copies a random base history and then redraws
// the return, the response time or the pendingness of an op, or adds one.
func randomForest(rng *rand.Rand, dt spec.DataType) [][]Op {
	base := randomBaseHistory(rng, dt, 5)
	forest := [][]Op{base}
	for b := 1 + rng.Intn(2); b > 0; b-- {
		h := append([]Op(nil), base...)
		for k := 1 + rng.Intn(2); k > 0; k-- {
			i := rng.Intn(len(h))
			redrawn := randomOp(rng, dt, h[i].ID)
			switch rng.Intn(4) {
			case 0:
				if !h[i].Pending() && !redrawn.Pending() {
					h[i].Ret = redrawn.Ret
				}
			case 1:
				if !h[i].Pending() {
					h[i].Respond = h[i].Invoke.Add(simtime.Duration(rng.Intn(7)))
				}
			case 2:
				h[i].Respond, h[i].Ret = simtime.Infinity, nil
			case 3:
				h = append(h, randomOp(rng, dt, len(h)))
			}
		}
		forest = append(forest, h)
	}
	return forest
}

// TestTreeMatchesReferenceOnRandomForests compares the two searches on
// 12 000 seeded forests of two and three branches over three types.
func TestTreeMatchesReferenceOnRandomForests(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	types := []spec.DataType{adt.NewQueue(), adt.NewRegister(0), adt.NewCounter()}
	const total = 12000
	strong := 0
	for i := 0; i < total; i++ {
		dt := types[i%len(types)]
		if sameAsReference(t, fmt.Sprintf("forest %d", i), dt, randomForest(rng, dt)...).Linearizable {
			strong++
		}
	}
	if strong < total/10 || strong > total*9/10 {
		t.Fatalf("stream is not the intended mix: %d of %d forests strongly linearizable", strong, total)
	}
}

// TestTreeIdentifiesValuesNotText: enqueue(1) and enqueue("1") print
// alike but are different operations. The branch that enqueues "1" and
// dequeues 1 is not linearizable, so no forest holding it is strongly
// linearizable, whichever branch is added first.
func TestTreeIdentifiesValuesNotText(t *testing.T) {
	q := adt.NewQueue()
	a := []Op{mkOp(0, 0, "enqueue", 1, nil, 0, 1), mkOp(1, 1, "dequeue", nil, 1, 2, 3)}
	b := []Op{mkOp(0, 0, "enqueue", "1", nil, 0, 1), mkOp(1, 1, "dequeue", nil, 1, 2, 3)}
	if checkForest(q, b).Linearizable {
		t.Fatal(`enqueue("1") then dequeue→1 must not be strongly linearizable on its own`)
	}
	for _, forest := range [][][]Op{{a, b}, {b, a}} {
		if res := checkForest(q, forest...); res.Linearizable {
			t.Errorf("forest with first branch %v: Linearizable = true, want false (%+v)", forest[0][0].Arg, res)
		}
	}
	// A response returning "1" where a sibling returns 1 is its own event.
	tree := NewTree()
	tree.Add(a)
	tree.Add([]Op{a[0], mkOp(1, 1, "dequeue", nil, "1", 2, 3)})
	if tree.Nodes() != 5 || tree.Check(q).Linearizable {
		t.Errorf("returns 1 and \"1\" unified: %d nodes, Linearizable = %v", tree.Nodes(), tree.Check(q).Linearizable)
	}
}
