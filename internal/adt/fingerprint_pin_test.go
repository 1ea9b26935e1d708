package adt

import (
	"strings"
	"testing"

	"lintime/internal/spec"
)

// fingerprintWalk drives dt through every sampled (op, arg) in declaration
// order, then through each int- or KV-taking op once more with a negative
// multi-digit value, and returns the distinct fingerprints met, in order.
func fingerprintWalk(dt spec.DataType) string {
	st := dt.Initial()
	fps := []string{st.Fingerprint()}
	step := func(op string, arg spec.Value) {
		_, st = st.Apply(op, arg)
		if fp := st.Fingerprint(); fp != fps[len(fps)-1] {
			fps = append(fps, fp)
		}
	}
	for _, op := range dt.Ops() {
		for _, arg := range op.Args {
			step(op.Name, arg)
		}
	}
	for _, op := range dt.Ops() {
		switch a := op.Args[0].(type) {
		case int:
			step(op.Name, -120)
		case KV:
			step(op.Name, KV{K: a.K, V: -120})
		}
	}
	return strings.Join(fps, " | ")
}

func TestFingerprintsPinned(t *testing.T) {
	types := map[string]spec.DataType{}
	for name, dt := range Registry() {
		types[name] = dt
	}
	types["keyed-queue"] = NewKeyed(NewQueue())
	for name, dt := range types {
		got := fingerprintWalk(dt)
		want, ok := pinnedFingerprints[name]
		if !ok {
			t.Errorf("%s: no pinned fingerprints; walk gives\n%q", name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: fingerprints drifted\n got %q\nwant %q", name, got, want)
		}
	}
	// Keys that need quoting, and an object driven back to its initial
	// state (elided from the fingerprint).
	st := NewKeyed(NewStack()).Initial()
	for _, in := range []spec.Instance{
		{Op: OpPush, Arg: KV{K: `q"uote`, V: 7}}, {Op: OpPush, Arg: KV{K: "é\n", V: -3}},
		{Op: OpPush, Arg: KV{K: "a", V: 1}}, {Op: OpPop, Arg: "a"},
	} {
		_, st = st.Apply(in.Op, in.Arg)
	}
	if got, want := st.Fingerprint(), pinnedKeyedQuoting; got != want {
		t.Errorf("keyed quoting: got %q want %q", got, want)
	}
	// Tree edges sort as strings ("10<0" before "2<0"), and the scalar
	// types carry a negative initial value.
	tree := NewTree().Initial()
	for _, e := range []Edge{{P: 0, C: 2}, {P: 0, C: 10}, {P: 10, C: -4}} {
		_, tree = tree.Apply(OpInsert, e)
	}
	for got, want := range map[string]string{
		tree.Fingerprint():                           "tree:-4<10,10<0,2<0",
		NewMaxRegister(-500).Initial().Fingerprint(): "max:-500",
		NewBank(-35).Initial().Fingerprint():         "bank:-35",
	} {
		if got != want {
			t.Errorf("got %q want %q", got, want)
		}
	}
}

var pinnedFingerprints = map[string]string{
	"bank":        "bank:0 | bank:1 | bank:3 | bank:8 | bank:7 | bank:5 | bank:0",
	"counter":     "ctr:0 | ctr:1 | ctr:2 | ctr:4 | ctr:9 | ctr:-111",
	"deque":       "deque: | deque:0 | deque:1,0 | deque:2,1,0 | deque:3,2,1,0 | deque:3,2,1,0,0 | deque:3,2,1,0,0,1 | deque:3,2,1,0,0,1,2 | deque:3,2,1,0,0,1,2,3 | deque:2,1,0,0,1,2,3 | deque:2,1,0,0,1,2 | deque:-120,2,1,0,0,1,2 | deque:-120,2,1,0,0,1,2,-120",
	"dict":        "dict: | dict:a=0 | dict:a=1 | dict:a=1,b=0 | dict:a=1,b=1 | dict:b=1 | dict: | dict:a=0 | dict:a=1 | dict:a=1,b=0 | dict:a=1,b=1 | dict:a=-120,b=1",
	"keyed-queue": "keyed{} | keyed{\"a\"=queue:0} | keyed{\"a\"=queue:0,1} | keyed{\"a\"=queue:0,1,2} | keyed{\"a\"=queue:0,1,2,3} | keyed{\"a\"=queue:0,1,2,3 \"b\"=queue:0} | keyed{\"a\"=queue:0,1,2,3 \"b\"=queue:0,1} | keyed{\"a\"=queue:0,1,2,3 \"b\"=queue:0,1,2} | keyed{\"a\"=queue:0,1,2,3 \"b\"=queue:0,1,2,3} | keyed{\"a\"=queue:1,2,3 \"b\"=queue:0,1,2,3} | keyed{\"a\"=queue:1,2,3 \"b\"=queue:1,2,3} | keyed{\"a\"=queue:1,2,3,-120 \"b\"=queue:1,2,3}",
	"log":         "log: | log:0 | log:0,1 | log:0,1,2 | log:0,1,2,3 | log:0,1,2,3,-120",
	"maxregister": "max:0 | max:1 | max:2 | max:3",
	"pqueue":      "pq: | pq:0 | pq:0,1 | pq:0,1,2 | pq:0,1,2,3 | pq:1,2,3 | pq:-120,1,2,3",
	"queue":       "queue: | queue:0 | queue:0,1 | queue:0,1,2 | queue:0,1,2,3 | queue:1,2,3 | queue:1,2,3,-120",
	"register":    "reg:0 | reg:1 | reg:2 | reg:3 | reg:-120",
	"rmwregister": "rmw:0 | rmw:1 | rmw:2 | rmw:3 | rmw:4 | rmw:6 | rmw:9 | rmw:14 | rmw:-120 | rmw:-240",
	"set":         "set: | set:0 | set:0,1 | set:0,1,2 | set:0,1,2,3 | set:1,2,3 | set:2,3 | set:3 | set: | set:-120 | set:",
	"stack":       "stack: | stack:0 | stack:0,1 | stack:0,1,2 | stack:0,1,2,3 | stack:0,1,2 | stack:0,1,2,-120",
	"tree":        "tree: | tree:1<0 | tree:1<0,3<1 | tree:1<0,3<1,5<3 | tree:1<0,2<0,3<1,5<3 | tree:1<0,2<1,3<1,5<3 | tree:1<0,2<3,3<1,5<3 | tree:1<0,2<5,3<1,5<3 | tree:1<0,3<1,5<3",
	"treefw":      "fwtree: | fwtree:1<0 | fwtree:1<0,3<1 | fwtree:1<0,3<1,5<3 | fwtree:1<0,2<0,3<1,5<3 | fwtree:1<0,3<1,5<3",
}

const pinnedKeyedQuoting = "keyed{\"q\\\"uote\"=stack:7 \"é\\n\"=stack:-3}"
