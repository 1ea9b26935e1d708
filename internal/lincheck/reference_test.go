package lincheck

// The search this package ran before the Checker: per-history, keyed on
// fingerprint strings, Apply and Fingerprint on every visit. Kept verbatim
// (names prefixed) as the reference the differential tests compare the
// Checker against — verdict, witness and Explored.

import (
	"sort"
	"sync"

	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// oldSortOps returns a copy of the history in deterministic exploration
// order: by invocation time, ties by ID.
func oldSortOps(history []Op) []Op {
	ops := append([]Op(nil), history...)
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Invoke != ops[j].Invoke {
			return ops[i].Invoke < ops[j].Invoke
		}
		return ops[i].ID < ops[j].ID
	})
	return ops
}

// oldCheck decides whether the history is linearizable with respect to dt.
func oldCheck(dt spec.DataType, history []Op) Result {
	ops := oldSortOps(history)
	c := newOldChecker(dt, ops)
	lin, ok := c.search(dt.Initial(), oldCompletedLeft(ops))
	if !ok {
		return Result{Linearizable: false, Explored: c.visited}
	}
	return Result{Linearizable: true, Linearization: lin, Explored: c.visited}
}

type oldChecker struct {
	dt      spec.DataType
	ops     []Op
	taken   []bool
	memo    map[string]struct{} // key → known-failed
	keyBuf  []byte              // scratch for memo keys; reused across states
	visited int
}

func newOldChecker(dt spec.DataType, ops []Op) *oldChecker {
	return &oldChecker{
		dt:     dt,
		ops:    ops,
		taken:  make([]bool, len(ops)),
		memo:   map[string]struct{}{},
		keyBuf: make([]byte, 0, (len(ops)+7)/8+32),
	}
}

// buildKey assembles the memo key for the current taken set and the given
// state fingerprint into the reused scratch buffer: a fixed-width bitmap
// of taken ops with the fingerprint appended (no separator needed — the
// bitmap width is constant for a history).
func (c *oldChecker) buildKey(fp string) []byte {
	nb := (len(c.taken) + 7) / 8
	buf := c.keyBuf[:0]
	for i := 0; i < nb; i++ {
		buf = append(buf, 0)
	}
	for i, t := range c.taken {
		if t {
			buf[i/8] |= 1 << (i % 8)
		}
	}
	buf = append(buf, fp...)
	c.keyBuf = buf[:0]
	return buf
}

// knownFailed reports whether the current (taken set, state) was already
// proven a dead end. The map lookup through string(buf) does not allocate.
func (c *oldChecker) knownFailed(fp string) bool {
	buf := c.buildKey(fp)
	_, bad := c.memo[string(buf)]
	return bad
}

// markFailed records the current (taken set, state) as a dead end. This is
// the only place a key escapes into the map (one allocation per failed
// state).
func (c *oldChecker) markFailed(fp string) {
	c.memo[string(c.buildKey(fp))] = struct{}{}
}

// oldFrame is one level of the explicit search stack: a reached state plus
// the iteration cursor over its untried extension candidates.
type oldFrame struct {
	state spec.State
	fp    string // state.Fingerprint(), computed once per oldFrame
	// minRespond is the earliest response among ops untaken at oldFrame
	// entry: any op invoked after it cannot be linearized next.
	minRespond simtime.Time
	next       int // next candidate op index to try
	left       int // completed ops still to linearize
	via        int // op index taken to enter this oldFrame (-1 at the root)
	viaRet     spec.Value
}

func (c *oldChecker) newOldFrame(st spec.State, fp string, left, via int, viaRet spec.Value) oldFrame {
	minRespond := simtime.Infinity
	for i, t := range c.taken {
		if !t && c.ops[i].Respond < minRespond {
			minRespond = c.ops[i].Respond
		}
	}
	return oldFrame{state: st, fp: fp, minRespond: minRespond, left: left, via: via, viaRet: viaRet}
}

// search tries to linearize the remaining ops from the given state using
// an explicit stack, and returns a witness permutation in linearization
// order. The caller's taken set must reflect ops already linearized.
func (c *oldChecker) search(state spec.State, completedLeft int) ([]spec.Instance, bool) {
	c.visited++
	if completedLeft == 0 {
		// All completed ops linearized; pending ops may be dropped.
		return nil, true
	}
	rootFP := state.Fingerprint()
	if c.knownFailed(rootFP) {
		return nil, false
	}
	stack := make([]oldFrame, 1, len(c.ops)+1)
	stack[0] = c.newOldFrame(state, rootFP, completedLeft, -1, nil)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		descended := false
		for f.next < len(c.ops) {
			i := f.next
			f.next++
			if c.taken[i] {
				continue
			}
			op := c.ops[i]
			if op.Invoke > f.minRespond {
				continue // some untaken op responded before this one was invoked
			}
			ret, next := f.state.Apply(op.Name, op.Arg)
			if !op.Pending() && !spec.ValuesEqual(ret, op.Ret) {
				continue // recorded response would be illegal here
			}
			left := f.left
			if !op.Pending() {
				left--
			}
			c.taken[i] = true
			c.visited++
			if left == 0 {
				// Success: the stack path plus this op is a witness.
				lin := make([]spec.Instance, 0, len(stack))
				for _, fr := range stack[1:] {
					o := c.ops[fr.via]
					lin = append(lin, spec.Instance{Op: o.Name, Arg: o.Arg, Ret: fr.viaRet})
				}
				lin = append(lin, spec.Instance{Op: op.Name, Arg: op.Arg, Ret: ret})
				for _, fr := range stack[1:] {
					c.taken[fr.via] = false
				}
				c.taken[i] = false
				return lin, true
			}
			fp := next.Fingerprint()
			if c.knownFailed(fp) {
				c.taken[i] = false
				continue
			}
			stack = append(stack, c.newOldFrame(next, fp, left, i, ret))
			descended = true
			break
		}
		if descended {
			continue
		}
		// All extensions exhausted: record the dead end and backtrack.
		c.markFailed(f.fp)
		if f.via >= 0 {
			c.taken[f.via] = false
		}
		stack = stack[:len(stack)-1]
	}
	return nil, false
}

// oldCompletedLeft computes the initial count of completed ops.
func oldCompletedLeft(ops []Op) int {
	n := 0
	for _, op := range ops {
		if !op.Pending() {
			n++
		}
	}
	return n
}

// oldCheckParallel decides linearizability like Check, splitting the search
// frontier at the root: each viable first choice of the linearization is
// explored by an independent worker (with its own memo table), and workers
// run at most `workers` at a time. The result is deterministic — the
// witness comes from the lowest-indexed successful branch — and identical
// to Check's verdict. With workers < 2 or trivially small histories it
// falls back to the sequential search.
func oldCheckParallel(dt spec.DataType, history []Op, workers int) Result {
	ops := oldSortOps(history)
	completedLeft := oldCompletedLeft(ops)
	if workers < 2 || completedLeft == 0 || len(ops) < 2 {
		return oldCheck(dt, history)
	}
	// Enumerate the viable first steps exactly as the sequential search
	// would at its root oldFrame.
	minRespond := simtime.Infinity
	for _, op := range ops {
		if op.Respond < minRespond {
			minRespond = op.Respond
		}
	}
	initial := dt.Initial()
	type branch struct {
		idx  int
		ret  spec.Value
		next spec.State
		left int
	}
	var branches []branch
	for i, op := range ops {
		if op.Invoke > minRespond {
			continue
		}
		ret, next := initial.Apply(op.Name, op.Arg)
		if !op.Pending() && !spec.ValuesEqual(ret, op.Ret) {
			continue
		}
		left := completedLeft
		if !op.Pending() {
			left--
		}
		branches = append(branches, branch{idx: i, ret: ret, next: next, left: left})
	}
	type outcome struct {
		lin     []spec.Instance
		ok      bool
		visited int
	}
	outcomes := make([]outcome, len(branches))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for bi := range branches {
		wg.Add(1)
		go func(bi int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			br := branches[bi]
			c := newOldChecker(dt, ops)
			c.taken[br.idx] = true
			lin, ok := c.search(br.next, br.left)
			if ok {
				first := ops[br.idx]
				lin = append([]spec.Instance{{Op: first.Name, Arg: first.Arg, Ret: br.ret}}, lin...)
			}
			outcomes[bi] = outcome{lin: lin, ok: ok, visited: c.visited + 1}
		}(bi)
	}
	wg.Wait()
	res := Result{}
	for _, o := range outcomes {
		res.Explored += o.visited
		if o.ok && !res.Linearizable {
			res.Linearizable = true
			res.Linearization = o.lin
		}
	}
	return res
}
