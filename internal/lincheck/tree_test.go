package lincheck

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// mkOp builds a history entry; resp == simtime.Infinity leaves it pending.
func mkOp(id, proc int, name string, arg, ret spec.Value, inv, resp simtime.Time) Op {
	return Op{ID: id, Proc: proc, Name: name, Arg: arg, Ret: ret, Invoke: inv, Respond: resp}
}

// TestCheckStrongPositives exercises prefix-closed histories with known
// verdicts on a one-branch tree: sequential runs, overlapping ops, and
// pending invocations that must (or need not) take effect.
func TestCheckStrongPositives(t *testing.T) {
	q := adt.NewQueue()
	cases := []struct {
		name    string
		history []Op
		want    bool
	}{
		{"empty", nil, true},
		{"sequential", []Op{
			mkOp(0, 0, "enqueue", 1, nil, 0, 1),
			mkOp(1, 0, "dequeue", nil, 1, 2, 3),
		}, true},
		{"overlap-either-order", []Op{
			mkOp(0, 0, "enqueue", 1, nil, 0, 4),
			mkOp(1, 1, "peek", nil, adt.EmptyMarker, 1, 2),
		}, true},
		{"pending-enqueue-observed", []Op{
			mkOp(0, 0, "enqueue", 7, nil, 0, simtime.Infinity),
			mkOp(1, 1, "dequeue", nil, 7, 2, 3),
		}, true},
		{"illegal-return", []Op{
			mkOp(0, 0, "enqueue", 1, nil, 0, 1),
			mkOp(1, 1, "dequeue", nil, 2, 2, 3),
		}, false},
		{"realtime-violation", []Op{
			mkOp(0, 0, "enqueue", 1, nil, 0, 1),
			mkOp(1, 0, "enqueue", 2, nil, 2, 3),
			mkOp(2, 1, "dequeue", nil, 2, 4, 5),
		}, false},
		{"touching-intervals-concurrent", []Op{
			// dequeue invoked at the instant enqueue responds: the
			// intervals touch, so either order is allowed and the empty
			// return is legal.
			mkOp(0, 0, "enqueue", 1, nil, 0, 2),
			mkOp(1, 1, "dequeue", nil, adt.EmptyMarker, 2, 3),
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := checkForest(q, tc.history)
			if res.Linearizable != tc.want {
				t.Fatalf("CheckTree = %v, want %v", res.Linearizable, tc.want)
			}
			plain := Check(q, tc.history)
			if res.Linearizable != plain.Linearizable {
				t.Fatalf("CheckTree = %v but Check = %v: single-trace verdicts must agree", res.Linearizable, plain.Linearizable)
			}
		})
	}
}

// TestCheckStrongTreeQueueCounterexample is the classic example of a
// history family that is linearizable branch by branch but not strongly
// linearizable: an enqueue completes while a concurrent peek is pending,
// and the adversary forks the run so the peek returns the old front in
// one branch and the new element in the other. The shared prefix contains
// the completed enqueue — it must be committed there — so no single
// choice for the peek's linearization point satisfies both futures.
func TestCheckStrongTreeQueueCounterexample(t *testing.T) {
	q := adt.NewQueue()
	shared := []Op{
		mkOp(0, 1, "enqueue", 5, nil, 0, 2),
	}
	sees := append(append([]Op(nil), shared...),
		mkOp(1, 0, "peek", nil, 5, 1, 4))
	misses := append(append([]Op(nil), shared...),
		mkOp(1, 0, "peek", nil, adt.EmptyMarker, 1, 4))

	for name, branch := range map[string][]Op{"sees": sees, "misses": misses} {
		if !Check(q, branch).Linearizable {
			t.Fatalf("branch %q must be linearizable on its own", name)
		}
		if !checkForest(q, branch).Linearizable {
			t.Fatalf("branch %q must pass the one-branch tree check on its own", name)
		}
	}

	tree := NewTree()
	tree.Add(sees)
	tree.Add(misses)
	if tree.Branches() != 2 || tree.Ops() != 2 {
		t.Fatalf("tree shape: branches=%d ops=%d, want 2 and 2", tree.Branches(), tree.Ops())
	}
	res := tree.Check(q)
	if res.Linearizable {
		t.Fatalf("fork of peek returns must not be strongly linearizable")
	}
}

// TestCheckStrongTreePositives: forks that remain strongly linearizable —
// branches that diverge only in which op is invoked next, or in response
// *times* with identical returns, impose no conflicting commits.
func TestCheckStrongTreePositives(t *testing.T) {
	q := adt.NewQueue()
	t.Run("diverging-invocations", func(t *testing.T) {
		shared := mkOp(0, 0, "enqueue", 1, nil, 0, 1)
		tree := NewTree()
		tree.Add([]Op{shared, mkOp(1, 1, "dequeue", nil, 1, 2, 3)})
		tree.Add([]Op{shared, mkOp(1, 1, "peek", nil, 1, 2, 3)})
		if res := tree.Check(q); !res.Linearizable {
			t.Fatalf("fork on next invocation must stay strong")
		}
	})
	t.Run("diverging-response-times-same-ret", func(t *testing.T) {
		shared := mkOp(0, 0, "enqueue", 1, nil, 0, 1)
		tree := NewTree()
		tree.Add([]Op{shared, mkOp(1, 1, "peek", nil, 1, 2, 3)})
		tree.Add([]Op{shared, mkOp(1, 1, "peek", nil, 1, 2, 4)})
		if res := tree.Check(q); !res.Linearizable {
			t.Fatalf("fork on response time with equal returns must stay strong")
		}
	})
	t.Run("single-history-twice", func(t *testing.T) {
		tree := NewTree()
		h := []Op{mkOp(0, 0, "enqueue", 1, nil, 0, 1)}
		tree.Add(h)
		tree.Add(h)
		if tree.Nodes() != 2 {
			t.Fatalf("identical histories must share all nodes, got %d", tree.Nodes())
		}
		if res := tree.Check(q); !res.Linearizable {
			t.Fatalf("duplicate history must stay strong")
		}
	})
}

// TestCheckStrongMatchesCheckOnCorpus replays every seed of the FuzzCheck
// corpus through both searches: on a one-branch tree the strong verdict
// must agree exactly with plain linearizability (strong ⇒ linearizable,
// and the converse holds because commit points can always realize a
// real-time respecting linearization).
func TestCheckStrongMatchesCheckOnCorpus(t *testing.T) {
	q := adt.NewQueue()
	dir := filepath.Join("testdata", "fuzz", "FuzzCheck")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading FuzzCheck corpus: %v", err)
	}
	if len(entries) == 0 {
		t.Fatalf("FuzzCheck corpus is empty")
	}
	for _, e := range entries {
		data, err := decodeCorpusFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		history := decodeFuzzHistory(data)
		strong := checkForest(q, history)
		plain := Check(q, history)
		if strong.Linearizable != plain.Linearizable {
			t.Errorf("%s: CheckTree = %v, Check = %v\nhistory: %+v", e.Name(), strong.Linearizable, plain.Linearizable, history)
		}
	}
}

// decodeCorpusFile parses a `go test fuzz v1` corpus entry holding one
// []byte value.
func decodeCorpusFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "go test fuzz") {
		return nil, errMalformed(path)
	}
	body := strings.TrimSpace(lines[1])
	body = strings.TrimPrefix(body, "[]byte(")
	body = strings.TrimSuffix(body, ")")
	s, err := strconv.Unquote(body)
	if err != nil {
		return nil, err
	}
	return []byte(s), nil
}

type errMalformed string

func (e errMalformed) Error() string { return "malformed corpus file: " + string(e) }
