package strongcheck

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"lintime/internal/lincheck"
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
func (t *Tree) Add(history []lincheck.Op) {
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

// Check decides whether the histories of the tree admit a
// prefix-preserving linearization: one assignment of commit points such
// that every branch's commit sequence is a legal linearization and
// branches sharing a prefix share its commits. See the package comment.
func (t *Tree) Check(dt spec.DataType) Result {
	c := newTChecker(t, spec.NewTable(dt))
	ok := c.solve(t.root, 0)
	return Result{Strong: ok, Explored: c.visited}
}

// tchecker is the DFS state of one tree check. The recursion is over tree
// nodes (bounded by the longest branch plus the operation count), so an
// explicit stack is not needed here.
type tchecker struct {
	table   *spec.Table
	kind    []int32 // table kind of each unified op
	ret     []int32 // table value id of each response node's return
	invoked []bool
	// retOf holds the id of the return each op committed with, −1 while it
	// is uncommitted. The op's respond event checks it (the recorded return
	// is branch-local), and it is part of the memo key: paths reaching one
	// state with different returns assigned face the responses below
	// differently.
	retOf   []int32
	memo    map[string]struct{}
	keyBuf  []byte
	visited int
}

func newTChecker(t *Tree, table *spec.Table) *tchecker {
	c := &tchecker{
		table:   table,
		kind:    make([]int32, len(t.ops)),
		ret:     make([]int32, t.nodes),
		invoked: make([]bool, len(t.ops)),
		retOf:   make([]int32, len(t.ops)),
		memo:    map[string]struct{}{},
	}
	for i, op := range t.ops {
		c.kind[i] = table.Kind(op.Op, op.Arg)
		c.retOf[i] = -1
	}
	var walk func(n *treeNode)
	walk = func(n *treeNode) {
		c.ret[n.id] = table.InternValue(n.ret)
		for _, child := range n.children {
			walk(child)
		}
	}
	walk(t.root)
	return c
}

// memoKey renders (node, retOf, state) in binary into the reused scratch
// buffer; indexing the memo by string(memoKey(…)) does not allocate.
func (c *tchecker) memoKey(n *treeNode, st int32) []byte {
	buf := binary.LittleEndian.AppendUint32(c.keyBuf[:0], uint32(n.id))
	for _, r := range c.retOf {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
	}
	c.keyBuf = binary.LittleEndian.AppendUint32(buf, uint32(st))
	return c.keyBuf
}

// solve decides whether the subtree rooted at n can be completed from the
// given state, with n's own event still unprocessed. Moves: process the
// event and descend into all children (a response requires its op
// committed with the branch's recorded return), or commit any invoked,
// uncommitted op first. Failures are memoized on (node, returns, state).
func (c *tchecker) solve(n *treeNode, st int32) bool {
	c.visited++
	if _, bad := c.memo[string(c.memoKey(n, st))]; bad {
		return false
	}
	if c.tryEvent(n, st) {
		return true
	}
	for i, r := range c.retOf {
		if r >= 0 || !c.invoked[i] {
			continue
		}
		next, ret := c.table.Step(st, c.kind[i])
		c.retOf[i] = ret
		ok := c.solve(n, next)
		c.retOf[i] = -1
		if ok {
			return true
		}
	}
	c.memo[string(c.memoKey(n, st))] = struct{}{}
	return false
}

// tryEvent processes n's event (if legal) and requires every child
// subtree to succeed from the resulting search state. At the root
// sentinel there is no event; a node without children is a completed
// branch.
func (c *tchecker) tryEvent(n *treeNode, st int32) bool {
	switch {
	case n.id == 0:
	case n.kind == evInvoke:
		c.invoked[n.op] = true
		defer func() { c.invoked[n.op] = false }()
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
