package lincheck

// The prefix-tree search that ran before spec.Table: operations
// and events identified by their printed text, Apply and Fingerprint on
// every visit, the memo keyed on fingerprint and return-value strings.
// Kept verbatim (names prefixed) as the reference the differential tests
// compare Tree.Check against — verdict and Explored.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"lintime/internal/spec"
)

// oldTree is a prefix tree (trie) of histories of one implementation. Each
// node carries one observable event — an invocation or a response, with
// the response's return value part of its identity — and histories that
// share a prefix of their time-ordered event sequences share the
// corresponding path of nodes. Operations appearing in several histories
// are unified by (process, operation, argument, invocation time), so a
// single commit decision in a shared prefix constrains every branch
// below it: exactly the prefix-preservation obligation of strong
// linearizability.
type oldTree struct {
	ops      []oldTreeOp
	opIndex  map[string]int
	root     *oldTreeNode
	nodes    int
	branches int
}

// oldTreeOp is an operation unified across branches. Its response (time and
// return value) is branch-local and lives on respond events, because an
// operation invoked in a shared prefix may complete differently — or not
// at all — in different branches.
type oldTreeOp struct {
	proc   int
	name   string
	arg    spec.Value
	argKey string
}

type oldTreeNode struct {
	id       int
	ev       event // zero-valued at the root sentinel
	isRoot   bool
	key      string // identity of ev among siblings
	children []*oldTreeNode
}

// newOldTree returns an empty prefix tree.
func newOldTree() *oldTree {
	t := &oldTree{opIndex: map[string]int{}}
	t.root = &oldTreeNode{id: 0, isRoot: true}
	t.nodes = 1
	return t
}

// Branches returns the number of histories added (= leaves, unless a
// history was added twice).
func (t *oldTree) Branches() int { return t.branches }

// Nodes returns the number of event nodes (excluding the root sentinel).
func (t *oldTree) Nodes() int { return t.nodes - 1 }

// Ops returns the number of unified operations.
func (t *oldTree) Ops() int { return len(t.ops) }

// Add inserts a history into the tree. Operations are unified across
// histories by (process, operation, argument, invocation time) — with an
// occurrence counter so repeated identical invocations stay distinct —
// and the history's events are merged along the path of matching event
// identities. Events at equal times order invocations before responses
// (see eventSeq); remaining ties keep history order, so histories
// produced by replaying the same deterministic engine prefix share nodes
// exactly as far as their observable events agree.
func (t *oldTree) Add(history []Op) {
	// Map each local op to a unified op index.
	occ := map[string]int{}
	unified := make([]int, len(history))
	for i, op := range history {
		argKey := spec.FormatValue(op.Arg)
		base := fmt.Sprintf("%d·%s·%s·%d", op.Proc, op.Name, argKey, op.Invoke)
		key := fmt.Sprintf("%s·#%d", base, occ[base])
		occ[base]++
		idx, ok := t.opIndex[key]
		if !ok {
			idx = len(t.ops)
			t.opIndex[key] = idx
			t.ops = append(t.ops, oldTreeOp{proc: op.Proc, name: op.Name, arg: op.Arg, argKey: argKey})
		}
		unified[i] = idx
	}
	// Build the event sequence over unified op indices and walk it into
	// the trie.
	local := eventSeq(history)
	cur := t.root
	for _, ev := range local {
		ev.op = unified[ev.op]
		key := oldEventKey(ev)
		child := cur.findChild(key)
		if child == nil {
			child = &oldTreeNode{id: t.nodes, ev: ev, key: key}
			t.nodes++
			cur.insertChild(child)
		}
		cur = child
	}
	t.branches++
}

// oldEventKey renders an event's identity: kind, time, unified op, and — for
// responses — the return value. Two histories diverge at the first event
// whose key differs, so a response that differs only in its return value
// is a branch point.
func oldEventKey(ev event) string {
	if ev.kind == evInvoke {
		return fmt.Sprintf("i·%d·%d", ev.time, ev.op)
	}
	return fmt.Sprintf("r·%d·%d·%s", ev.time, ev.op, spec.FormatValue(ev.ret))
}

func (n *oldTreeNode) findChild(key string) *oldTreeNode {
	for _, c := range n.children {
		if c.key == key {
			return c
		}
	}
	return nil
}

// insertChild keeps children in sorted key order so exploration (and
// therefore the Explored count) is independent of insertion order.
func (n *oldTreeNode) insertChild(c *oldTreeNode) {
	i := sort.Search(len(n.children), func(i int) bool { return n.children[i].key >= c.key })
	n.children = append(n.children, nil)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = c
}

// Check decides whether the histories of the tree admit a
// prefix-preserving linearization: one assignment of commit points such
// that every branch's commit sequence is a legal linearization and
// branches sharing a prefix share its commits. See the package comment.
func (t *oldTree) Check(dt spec.DataType) Result {
	c := newOldTChecker(t)
	init := dt.Initial()
	ok := c.solve(t.root, init, init.Fingerprint())
	return Result{Linearizable: ok, Explored: c.visited}
}

// oldTChecker is the DFS state of one tree check, mirroring lincheck's
// checker: a failed-state memo with compact keys assembled in a reused
// scratch buffer. The recursion is over tree nodes (bounded by the
// longest branch plus the operation count), so an explicit stack is not
// needed here.
type oldTChecker struct {
	tree    *oldTree
	taken   []bool
	invoked []bool
	// retOf holds the spec return produced when an op was committed. It is
	// checked when the op's respond event is processed (the recorded
	// return is branch-local, so the match cannot happen at commit time)
	// and is part of the memo key for taken ops: two paths can reach the
	// same (taken set, state) having assigned different returns, and only
	// some assignments satisfy the responses below.
	retOf   []spec.Value
	memo    map[string]struct{}
	keyBuf  []byte
	visited int
}

func newOldTChecker(t *oldTree) *oldTChecker {
	return &oldTChecker{
		tree:    t,
		taken:   make([]bool, len(t.ops)),
		invoked: make([]bool, len(t.ops)),
		retOf:   make([]spec.Value, len(t.ops)),
		memo:    map[string]struct{}{},
		keyBuf:  make([]byte, 0, 4+(len(t.ops)+7)/8+64),
	}
}

// buildKey assembles the memo key for (node, taken set, pending return
// assignment, state fingerprint) in the reused scratch buffer.
func (c *oldTChecker) buildKey(n *oldTreeNode, fp string) []byte {
	buf := c.keyBuf[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n.id))
	nb := (len(c.taken) + 7) / 8
	for i := 0; i < nb; i++ {
		buf = append(buf, 0)
	}
	for i, t := range c.taken {
		if t {
			buf[4+i/8] |= 1 << (i % 8)
		}
	}
	for i, t := range c.taken {
		if t {
			buf = append(buf, spec.FormatValue(c.retOf[i])...)
			buf = append(buf, '·')
		}
	}
	buf = append(buf, fp...)
	c.keyBuf = buf[:0]
	return buf
}

func (c *oldTChecker) knownFailed(n *oldTreeNode, fp string) bool {
	_, bad := c.memo[string(c.buildKey(n, fp))]
	return bad
}

func (c *oldTChecker) markFailed(n *oldTreeNode, fp string) {
	c.memo[string(c.buildKey(n, fp))] = struct{}{}
}

// solve decides whether the subtree rooted at n can be completed from the
// given state, with n's own event still unprocessed. Moves: process the
// event and descend into all children (a response requires its op
// committed with the branch's recorded return), or commit any invoked,
// uncommitted op first. Failures are memoized on (node, taken, returns,
// state).
func (c *oldTChecker) solve(n *oldTreeNode, st spec.State, fp string) bool {
	c.visited++
	if c.knownFailed(n, fp) {
		return false
	}
	if c.tryEvent(n, st, fp) {
		return true
	}
	for i := range c.tree.ops {
		if c.taken[i] || !c.invoked[i] {
			continue
		}
		op := c.tree.ops[i]
		ret, next := st.Apply(op.name, op.arg)
		c.taken[i] = true
		c.retOf[i] = ret
		ok := c.solve(n, next, next.Fingerprint())
		c.taken[i] = false
		c.retOf[i] = nil
		if ok {
			return true
		}
	}
	c.markFailed(n, fp)
	return false
}

// tryEvent processes n's event (if legal) and requires every child
// subtree to succeed from the resulting search state. At the root
// sentinel there is no event; a node without children is a completed
// branch.
func (c *oldTChecker) tryEvent(n *oldTreeNode, st spec.State, fp string) bool {
	if !n.isRoot {
		switch n.ev.kind {
		case evInvoke:
			c.invoked[n.ev.op] = true
			defer func() { c.invoked[n.ev.op] = false }()
		case evRespond:
			if !c.taken[n.ev.op] || !spec.ValuesEqual(c.retOf[n.ev.op], n.ev.ret) {
				return false
			}
		}
	}
	for _, child := range n.children {
		if !c.solve(child, st, fp) {
			return false
		}
	}
	return true
}
