package lincheck

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// Tree is a prefix tree (trie) of histories of one implementation. Each
// node carries one observable event — an invocation or a response, with
// the response's return value part of its identity — and histories that
// share a prefix of their time-ordered event sequences share the
// corresponding path of nodes. Operations appearing in several histories
// are unified by (process, operation, argument, invocation time), so a
// single commit decision in a shared prefix constrains every branch
// below it: exactly the prefix-preservation obligation of strong
// linearizability. Arguments and return values are identified by
// spec.ValueKey, never by how they print.
type Tree struct {
	// ops are the operations unified across branches. An op's response
	// (time and return value) is branch-local and lives on respond events:
	// an op invoked in a shared prefix may complete differently — or not at
	// all — in different branches.
	ops      []spec.Invocation
	opIndex  map[opKey]int
	root     *treeNode
	nodes    int
	branches int
}

// opKey identifies an operation across histories; occ counts the
// identical invocations before it in its own history.
type opKey struct {
	proc   int
	name   string
	arg    any
	invoke simtime.Time
	occ    int
}

// treeNode is one event; node 0 is the root sentinel, which has none.
type treeNode struct {
	id   int
	kind eventKind
	op   int        // unified op
	ret  spec.Value // a response's return value
	// key renders kind, time and op ("i·time·op", "r·time·op·"): with ret's
	// spec.ValueKey it is the event's identity among siblings, and with
	// spec.CompareValues on ret it orders them.
	key      string
	children []*treeNode
}

// event is one endpoint of an operation in the time-ordered event view of
// a history.
type event struct {
	time simtime.Time
	kind eventKind
	op   int // index into the history
	ret  spec.Value
}

type eventKind uint8

const (
	evInvoke eventKind = iota
	evRespond
)

// eventSeq converts a history into its time-ordered event sequence.
// Simultaneous events order invocations before responses — an operation
// invoked at the very instant another responds still overlaps it in the
// interval order (Check's real-time precedence uses the same strict
// inequality), so the commit freedom of the two searches coincides —
// and ties beyond that break by op index for determinism.
func eventSeq(ops []Op) []event {
	evs := make([]event, 0, 2*len(ops))
	for i, op := range ops {
		evs = append(evs, event{time: op.Invoke, kind: evInvoke, op: i})
		if !op.Pending() {
			evs = append(evs, event{time: op.Respond, kind: evRespond, op: i, ret: op.Ret})
		}
	}
	slices.SortFunc(evs, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.time, b.time), cmp.Compare(a.kind, b.kind), cmp.Compare(a.op, b.op))
	})
	return evs
}

// NewTree returns an empty prefix tree.
func NewTree() *Tree {
	return &Tree{opIndex: map[opKey]int{}, root: &treeNode{}, nodes: 1}
}

// Branches returns the number of histories added (= leaves, unless a
// history was added twice).
func (t *Tree) Branches() int { return t.branches }

// Nodes returns the number of event nodes (excluding the root sentinel).
func (t *Tree) Nodes() int { return t.nodes - 1 }

// Ops returns the number of unified operations.
func (t *Tree) Ops() int { return len(t.ops) }

// Add inserts a history into the tree. Operations are unified across
// histories by (process, operation, argument, invocation time) — with an
// occurrence counter so repeated identical invocations stay distinct —
// and the history's events are merged along the path of matching event
// identities. Events at equal times order invocations before responses
// (see eventSeq); remaining ties keep history order, so histories
// produced by replaying the same deterministic engine prefix share nodes
// exactly as far as their observable events agree.
func (t *Tree) Add(history []Op) {
	occ := map[opKey]int{}
	unified := make([]int, len(history))
	for i, op := range history {
		base := opKey{proc: op.Proc, name: op.Name, arg: spec.ValueKey(op.Arg), invoke: op.Invoke}
		key := base
		key.occ = occ[base]
		occ[base]++
		idx, ok := t.opIndex[key]
		if !ok {
			idx = len(t.ops)
			t.opIndex[key] = idx
			t.ops = append(t.ops, spec.Invocation{Op: op.Name, Arg: op.Arg})
		}
		unified[i] = idx
	}
	cur := t.root
	for _, ev := range eventSeq(history) {
		op, format := unified[ev.op], "i·%d·%d"
		if ev.kind == evRespond {
			format = "r·%d·%d·"
		}
		key := fmt.Sprintf(format, ev.time, op)
		child := cur.findChild(key, ev.ret)
		if child == nil {
			child = &treeNode{id: t.nodes, kind: ev.kind, op: op, ret: ev.ret, key: key}
			t.nodes++
			cur.insertChild(child)
		}
		cur = child
	}
	t.branches++
}

func (n *treeNode) findChild(key string, ret spec.Value) *treeNode {
	for _, c := range n.children {
		if c.key == key && spec.ValueKey(c.ret) == spec.ValueKey(ret) {
			return c
		}
	}
	return nil
}

// insertChild keeps n's children ordered by key, then by return value as
// spec.CompareValues orders them — the order of the events' printed text —
// so exploration (and therefore the Explored count) does not depend on
// insertion order. Returns that print alike keep insertion order.
func (n *treeNode) insertChild(c *treeNode) {
	i := sort.Search(len(n.children), func(i int) bool {
		s := n.children[i]
		if s.key != c.key {
			return s.key > c.key
		}
		return spec.CompareValues(s.ret, c.ret) > 0
	})
	n.children = slices.Insert(n.children, i, c)
}

// Check is shorthand for NewChecker(dt).CheckTree(t).
func (t *Tree) Check(dt spec.DataType) Result {
	return NewChecker(dt).CheckTree(t)
}

// The entries of Checker.retOf other than a committed return's id.
const (
	uncommitted int32 = -1 // invoked on the current path, not yet committed
	uninvoked   int32 = -2 // not invoked on the current path
)

// CheckTree decides whether the histories of the tree admit a
// prefix-preserving linearization: one assignment of commit points such
// that every branch's commit sequence is a legal linearization and
// branches sharing a prefix share its commits. Linearizable carries the
// verdict; there is no witness. See the package comment.
//
// A search state is a tree node, a state id and, per unified op, retOf:
// the id of the return it committed with, or uncommitted / uninvoked. The
// op's respond event checks it (the recorded return is branch-local), and
// it is part of the memo key: paths reaching one state with different
// returns assigned face the responses below differently. The recursion is
// over tree nodes (bounded by the longest branch plus the operation
// count), so an explicit stack is not needed here.
func (c *Checker) CheckTree(t *Tree) Result {
	c.table.Trim()
	c.kind = slices.Grow(c.kind[:0], len(t.ops))
	c.retOf = slices.Grow(c.retOf[:0], len(t.ops))
	c.ret = slices.Grow(c.ret[:0], t.nodes)[:t.nodes]
	for _, op := range t.ops {
		c.kind = append(c.kind, c.table.Kind(op.Op, op.Arg))
		c.retOf = append(c.retOf, uninvoked)
	}
	c.internRets(t.root)
	clear(c.memo)
	c.visited = 0
	ok := c.solve(t.root, 0)
	return Result{Linearizable: ok, Explored: c.visited}
}

// internRets sets ret[id] to the value id of every node's return in n's
// subtree.
func (c *Checker) internRets(n *treeNode) {
	c.ret[n.id] = c.table.InternValue(n.ret)
	for _, child := range n.children {
		c.internRets(child)
	}
}

// retKey renders retOf into the reused scratch buffer; indexing the memo
// with string(retKey()) in the key literal does not allocate.
func (c *Checker) retKey() []byte {
	c.keyBuf = c.keyBuf[:0]
	for _, r := range c.retOf {
		c.keyBuf = binary.LittleEndian.AppendUint32(c.keyBuf, uint32(r))
	}
	return c.keyBuf
}

// solve decides whether the subtree rooted at n can be completed from
// state st, with n's own event still unprocessed. Moves: process the
// event and descend into all children (a response requires its op
// committed with the branch's recorded return), or commit any invoked,
// uncommitted op first. Failures are memoized on (node, state, retOf).
func (c *Checker) solve(n *treeNode, st int32) bool {
	c.visited++
	if _, bad := c.memo[memoKey{uint64(n.id), st, string(c.retKey())}]; bad {
		return false
	}
	if c.tryEvent(n, st) {
		return true
	}
	for i, r := range c.retOf {
		if r != uncommitted {
			continue
		}
		next, ret := c.table.Step(st, c.kind[i])
		c.retOf[i] = ret
		ok := c.solve(n, next)
		c.retOf[i] = uncommitted
		if ok {
			return true
		}
	}
	c.memo[memoKey{uint64(n.id), st, string(c.retKey())}] = struct{}{}
	return false
}

// tryEvent processes n's event (if legal) and requires every child
// subtree to succeed from the resulting search state. At the root
// sentinel there is no event; a node without children is a completed
// branch.
func (c *Checker) tryEvent(n *treeNode, st int32) bool {
	switch {
	case n.id == 0:
	case n.kind == evInvoke:
		c.retOf[n.op] = uncommitted
		defer func() { c.retOf[n.op] = uninvoked }()
	case c.retOf[n.op] != c.ret[n.id]:
		return false
	}
	for _, child := range n.children {
		if !c.solve(child, st) {
			return false
		}
	}
	return true
}
