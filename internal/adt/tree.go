package adt

import (
	"sort"
	"strconv"
	"strings"

	"lintime/internal/spec"
)

// Tree operation names.
const (
	OpInsert = "insert"
	OpDelete = "delete"
	OpDepth  = "depth"
)

// AbsentMarker is returned by queries that target a node not in the tree.
const AbsentMarker = -1

// Edge is the argument of insert: place node C under parent P.
type Edge struct {
	P int
	C int
}

// Tree is a simple rooted tree over int node IDs with root 0 (Table 4 of
// the paper). The paper does not pin down the exact sequential semantics
// of Insert/Delete; we choose semantics that (a) keep both pure mutators,
// as required for the ε upper bound in Table 4, and (b) make Insert
// last-sensitive for arbitrarily large k (see classify): Insert is a
// create-or-move so the last insert of a node determines its parent.
// Delete is leaf-only, which makes it order-sensitive (hence
// last-sensitive with k = 2, the u/2 bound); see EXPERIMENTS.md for the
// discussion of the (1-1/n)u claim for Delete under other semantics.
//
// Operations:
//
//	insert({p,c}, ⊥) — pure mutator. If p is present, c ≠ 0, and c is not
//	                   an ancestor of p, then c is created under p (moving
//	                   c and its subtree if c already exists). Otherwise a
//	                   no-op.
//	delete(c, ⊥)     — pure mutator. Removes c if c is a leaf other than
//	                   the root; otherwise a no-op.
//	depth(c, k)      — pure accessor. Returns the depth of node c (root
//	                   has depth 0), or -1 if c is absent.
type Tree struct{}

// NewTree returns the simple rooted tree data type.
func NewTree() *Tree { return &Tree{} }

// Name implements spec.DataType.
func (t *Tree) Name() string { return "tree" }

// Ops implements spec.DataType.
func (t *Tree) Ops() []spec.OpInfo {
	return treeOps()
}

// Initial implements spec.DataType.
func (t *Tree) Initial() spec.State { return treeState{parent: map[int]int{}} }

// treeOps is shared by the move-insert and first-wins tree variants. The
// insert samples include four different parents (0, 1, 3, 5) for the
// common child 2, which lets the classifier find last-sensitive witnesses
// with k = 4 = classify.MaxKSearched under move semantics.
func treeOps() []spec.OpInfo {
	return []spec.OpInfo{
		{Name: OpInsert, Args: []spec.Value{
			Edge{P: 0, C: 1}, Edge{P: 1, C: 3}, Edge{P: 3, C: 5},
			Edge{P: 0, C: 2}, Edge{P: 1, C: 2}, Edge{P: 3, C: 2}, Edge{P: 5, C: 2},
		}},
		{Name: OpDelete, Args: []spec.Value{1, 2, 3}},
		{Name: OpDepth, Args: []spec.Value{0, 1, 2, 3}},
	}
}

// treeState maps each non-root node to its parent. The root 0 is always
// present and has no entry. The map is never mutated in place.
type treeState struct {
	parent map[int]int
}

func (s treeState) has(node int) bool {
	if node == 0 {
		return true
	}
	_, ok := s.parent[node]
	return ok
}

func (s treeState) isLeaf(node int) bool {
	for _, p := range s.parent {
		if p == node {
			return false
		}
	}
	return true
}

// isAncestor reports whether a is a (non-strict) ancestor of b.
func (s treeState) isAncestor(a, b int) bool {
	for {
		if a == b {
			return true
		}
		p, ok := s.parent[b]
		if !ok {
			return false
		}
		b = p
	}
}

func (s treeState) clone() treeState {
	next := make(map[int]int, len(s.parent))
	for k, v := range s.parent {
		next[k] = v
	}
	return treeState{parent: next}
}

func (s treeState) Apply(op string, arg spec.Value) (spec.Value, spec.State) {
	switch op {
	case OpInsert:
		e, ok := arg.(Edge)
		if !ok {
			return errValue(op, arg), s
		}
		if e.C == 0 || !s.has(e.P) || (s.has(e.C) && s.isAncestor(e.C, e.P)) {
			return nil, s
		}
		next := s.clone()
		next.parent[e.C] = e.P
		return nil, next
	case OpDelete:
		c, ok := arg.(int)
		if !ok {
			return errValue(op, arg), s
		}
		if c == 0 || !s.has(c) || !s.isLeaf(c) {
			return nil, s
		}
		next := s.clone()
		delete(next.parent, c)
		return nil, next
	case OpDepth:
		c, ok := arg.(int)
		if !ok {
			return errValue(op, arg), s
		}
		if !s.has(c) {
			return AbsentMarker, s
		}
		depth := 0
		for c != 0 {
			c = s.parent[c]
			depth++
		}
		return depth, s
	default:
		return errValue(op, arg), s
	}
}

func (s treeState) Fingerprint() string {
	edges := make([]string, 0, len(s.parent))
	for c, p := range s.parent {
		edges = append(edges, strconv.Itoa(c)+"<"+strconv.Itoa(p))
	}
	sort.Strings(edges)
	return "tree:" + strings.Join(edges, ",")
}
