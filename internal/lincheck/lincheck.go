// Package lincheck decides linearizability of recorded histories against
// a sequential specification, implementing the correctness condition of
// Section 2.3 of the paper: a history is linearizable iff there is a
// permutation of its operation instances that (i) is legal for the data
// type and (ii) preserves the real-time order of non-overlapping
// instances.
//
// The checker is a Wing–Gong style depth-first search over linearization
// prefixes on an explicit stack, memoized on (set of linearized ops, object
// state) so equivalent prefixes are explored once. Pending invocations
// (from chopped run fragments) may take effect with any legal response or
// be dropped, per the standard completion rule.
//
// The search runs over integers. A Checker compiles its data type once
// into a spec.Table — interned states, operation kinds, return-value ids
// and cached transitions — that it keeps across all the histories it
// checks, so spec.State.Apply and Fingerprint run once per distinct
// (state, kind) and a recorded return is checked by comparing two ids.
// The table memoises a pure function: it never changes a verdict, a
// witness or an Explored count, only who computes it. Per history, the
// taken set is a bitmap and the failed-state memo is keyed on (bitmap,
// state id), with no string to build while the history fits one 64-bit
// word.
//
// Check, CheckTrace and CheckParallel build a Checker for one history; a
// caller with many histories of one type (adversary.Runner) keeps one per
// worker.
//
// The same Checker decides *strong* linearizability [Golab, Higham &
// Woelfel 2011]: an implementation is strongly linearizable if a single
// linearization function f can be chosen such that f(H) is a
// linearization of every history H and f is prefix-preserving — H a
// prefix of G implies f(H) a prefix of f(G). Equivalently, linearization
// points must be chosen online, without knowledge of the future.
// CheckTree (Tree.Check for one tree) examines a prefix tree of
// histories — executions of one implementation that share observable
// prefixes and then diverge (the adversary's move). The linearization
// chosen for a shared prefix must extend into *every* branch: the classic
// queue counterexample — a completed enqueue and a concurrent read whose
// return reveals a different order in each branch — is linearizable
// branch by branch, yet CheckTree rejects it. On a one-branch tree the
// verdict is Check's (commit points inside each operation's interval
// realize any linearization that respects real-time order); FuzzCheck
// pins that. CheckTree returns the verdict and the search cost only, no
// witness.
//
// The two searches stay separate: the Wing–Gong loop over a flat history,
// and a depth-first search over tree nodes. Sending a single history
// through a tree would build a node per event on the verifier's hot loop.
package lincheck

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// Op is one operation instance of a history with its real-time interval.
// A pending operation has Respond == simtime.Infinity and its Ret is
// ignored. Proc is informational for Check (real-time order alone decides
// linearizability) but load-bearing for a Tree, where events from
// different histories are identified by (time, process, operation).
type Op struct {
	ID      int
	Proc    int
	Name    string
	Arg     spec.Value
	Ret     spec.Value
	Invoke  simtime.Time
	Respond simtime.Time
}

// Pending reports whether the operation never responded.
func (o Op) Pending() bool { return o.Respond == simtime.Infinity }

// FromTrace extracts the checker's history from a simulation trace,
// including pending invocations.
func FromTrace(tr *sim.Trace) []Op {
	return appendTrace(make([]Op, 0, len(tr.Ops)), tr)
}

func appendTrace(ops []Op, tr *sim.Trace) []Op {
	for i, rec := range tr.Ops {
		ops = append(ops, Op{
			ID:      i,
			Proc:    int(rec.Proc),
			Name:    rec.Op,
			Arg:     rec.Arg,
			Ret:     rec.Ret,
			Invoke:  rec.InvokeTime,
			Respond: rec.RespondTime,
		})
	}
	return ops
}

// Result reports the outcome of a check.
type Result struct {
	Linearizable bool
	// Linearization is a witness permutation when Linearizable is true.
	Linearization []spec.Instance
	// Explored counts visited search states, as a cost metric.
	Explored int
}

// Check decides whether the history is linearizable with respect to dt.
func Check(dt spec.DataType, history []Op) Result {
	return NewChecker(dt).Check(history)
}

// CheckTrace is shorthand for Check(dt, FromTrace(tr)).
func CheckTrace(dt spec.DataType, tr *sim.Trace) Result {
	return NewChecker(dt).CheckTrace(tr)
}

// Checker checks histories of one data type through a spec.Table it keeps
// across calls. It is single-threaded: pool it, never share it.
type Checker struct {
	table *spec.Table

	// The compiled history and the search's scratch, reused between checks.
	// CheckTree reuses kind, ret, memo, keyBuf and visited, indexing kind
	// by unified op and ret by tree node.
	ops     []Op     // exploration order: by invocation time, ties by ID
	kind    []int32  // kind[i] is the table kind of ops[i]
	ret     []int32  // ret[i] is the table value id of ops[i].Ret, −1 if pending
	taken   []uint64 // bitmap over ops: linearized on the current path
	stack   []frame
	retOf   []int32              // CheckTree's per-op commitments
	memo    map[memoKey]struct{} // search states known to be dead ends
	keyBuf  []byte               // scratch for memoKey.rest
	visited int
}

// memoKey is a search position and a state. For Check the position is
// the taken set: taken0 is its first word and rest holds the words past
// it, empty — nothing to build, nothing to allocate — for the histories
// of at most 64 operations the verification pipeline produces. For
// CheckTree it is a node id in taken0 and the retOf vector in rest.
type memoKey struct {
	taken0 uint64
	state  int32
	rest   string
}

// NewChecker returns a Checker for histories of dt.
func NewChecker(dt spec.DataType) *Checker {
	return &Checker{table: spec.NewTable(dt), memo: map[memoKey]struct{}{}}
}

// Check decides whether the history is linearizable.
func (c *Checker) Check(history []Op) Result {
	c.ops = append(c.ops[:0], history...)
	lin, ok := c.search(0, c.compile())
	return Result{Linearizable: ok, Linearization: lin, Explored: c.visited}
}

// CheckTrace is Check over the trace's operations, pending ones included.
func (c *Checker) CheckTrace(tr *sim.Trace) Result {
	c.ops = appendTrace(c.ops[:0], tr)
	lin, ok := c.search(0, c.compile())
	return Result{Linearizable: ok, Linearization: lin, Explored: c.visited}
}

// compile puts c.ops in exploration order and resolves them. It returns
// the number of completed ops, which a linearization must contain.
func (c *Checker) compile() (completed int) {
	c.table.Trim()
	slices.SortFunc(c.ops, func(a, b Op) int {
		return cmp.Or(cmp.Compare(a.Invoke, b.Invoke), cmp.Compare(a.ID, b.ID))
	})
	return c.resolve()
}

// resolve looks every op's kind and recorded return up in the table and
// readies the scratch for a search. It returns compile's count.
func (c *Checker) resolve() (completed int) {
	c.kind, c.ret = c.kind[:0], c.ret[:0]
	for i := range c.ops {
		op := &c.ops[i]
		ret := int32(-1)
		if !op.Pending() {
			completed++
			ret = c.table.InternValue(op.Ret)
		}
		c.kind = append(c.kind, c.table.Kind(op.Name, op.Arg))
		c.ret = append(c.ret, ret)
	}
	words := max(1, (len(c.ops)+63)/64)
	c.taken = slices.Grow(c.taken[:0], words)[:words]
	clear(c.taken)
	clear(c.memo)
	c.visited = 0
	return completed
}

// legal reports whether ops[i] may respond with ret: always when it is
// pending, otherwise when ret is its recorded return.
func (c *Checker) legal(i int, ret int32) bool {
	return c.ret[i] < 0 || c.ret[i] == ret
}

// instance renders ops[i], linearized with response ret, for a witness.
func (c *Checker) instance(i int, ret int32) spec.Instance {
	return spec.Instance{Op: c.ops[i].Name, Arg: c.ops[i].Arg, Ret: c.table.Value(ret)}
}

func (c *Checker) isTaken(i int) bool { return c.taken[i>>6]>>(i&63)&1 != 0 }
func (c *Checker) take(i int)         { c.taken[i>>6] |= 1 << (i & 63) }
func (c *Checker) untake(i int)       { c.taken[i>>6] &^= 1 << (i & 63) }

// restKey renders the bitmap's words past the first into the reused
// scratch buffer; indexing the memo by string(restKey()) does not allocate.
func (c *Checker) restKey() []byte {
	c.keyBuf = c.keyBuf[:0]
	for _, w := range c.taken[1:] {
		c.keyBuf = binary.LittleEndian.AppendUint64(c.keyBuf, w)
	}
	return c.keyBuf
}

// knownFailed reports whether the current (taken set, state) was already
// proven a dead end.
func (c *Checker) knownFailed(state int32) bool {
	_, bad := c.memo[memoKey{c.taken[0], state, string(c.restKey())}]
	return bad
}

// markFailed records the current (taken set, state) as a dead end.
func (c *Checker) markFailed(state int32) {
	c.memo[memoKey{c.taken[0], state, string(c.restKey())}] = struct{}{}
}

// frame is one level of the explicit search stack: a reached state plus
// the iteration cursor over its untried extension candidates.
type frame struct {
	state int32
	via   int32 // op index taken to enter this frame (-1 at the root)
	next  int32 // next candidate op index to try
	left  int32 // completed ops still to linearize
	// minRespond is the earliest response among ops untaken at frame
	// entry: any op invoked after it cannot be linearized next.
	minRespond simtime.Time
	viaRet     int32
}

func (c *Checker) newFrame(state int32, left, via int, viaRet int32) frame {
	minRespond := simtime.Infinity
	for i := range c.ops {
		if r := c.ops[i].Respond; r < minRespond && !c.isTaken(i) {
			minRespond = r
		}
	}
	return frame{state: state, via: int32(via), left: int32(left), minRespond: minRespond, viaRet: viaRet}
}

// search tries to linearize the untaken ops from the given state using an
// explicit stack, and returns a witness permutation in linearization
// order. The taken set must reflect ops already linearized; left counts
// the completed ops among the rest.
func (c *Checker) search(state int32, left int) ([]spec.Instance, bool) {
	c.visited++
	if left == 0 {
		// All completed ops linearized; pending ops may be dropped.
		return nil, true
	}
	stack := append(c.stack[:0], c.newFrame(state, left, -1, -1))
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		descended := false
		for int(f.next) < len(c.ops) {
			i := int(f.next)
			f.next++
			op := &c.ops[i]
			if op.Invoke > f.minRespond {
				// Some untaken op responded before this one was invoked,
				// and before every later one: ops are in invocation order.
				f.next = int32(len(c.ops))
				break
			}
			if c.isTaken(i) {
				continue
			}
			next, ret := c.table.Step(f.state, c.kind[i])
			if !c.legal(i, ret) {
				continue // recorded response would be illegal here
			}
			left := int(f.left)
			if !op.Pending() {
				left--
			}
			c.visited++
			if left == 0 {
				// Success: the stack path plus this op is a witness.
				lin := make([]spec.Instance, 0, len(stack))
				for _, fr := range stack[1:] {
					lin = append(lin, c.instance(int(fr.via), fr.viaRet))
				}
				c.stack = stack[:0]
				return append(lin, c.instance(i, ret)), true
			}
			c.take(i)
			if c.knownFailed(next) {
				c.untake(i)
				continue
			}
			stack = append(stack, c.newFrame(next, left, i, ret))
			descended = true
			break
		}
		if descended {
			continue
		}
		// All extensions exhausted: record the dead end and backtrack.
		c.markFailed(f.state)
		if f.via >= 0 {
			c.untake(int(f.via))
		}
		stack = stack[:len(stack)-1]
	}
	c.stack = stack
	return nil, false
}

// CheckParallel decides linearizability like Check, for callers that hold
// one long history: it splits the search frontier at the root, and each
// viable first choice of the linearization is explored from a clean memo
// by one of at most `workers` goroutines, each with a Checker of its own.
// The result is deterministic — the witness comes from the lowest-indexed
// successful branch, Explored sums every branch — and the verdict is
// Check's. With workers < 2 or trivially small histories it is the
// sequential search.
func CheckParallel(dt spec.DataType, history []Op, workers int) Result {
	if workers < 2 || len(history) < 2 {
		return Check(dt, history)
	}
	root := NewChecker(dt)
	root.ops = append(root.ops, history...)
	completed := root.compile()
	if completed == 0 {
		return root.Check(history) // all pending: nothing to split
	}
	// The viable first steps, exactly as the sequential search would try
	// them at its root frame.
	var firsts []int
	minRespond := root.newFrame(0, completed, -1, -1).minRespond
	for i := range root.ops {
		if root.ops[i].Invoke > minRespond {
			break
		}
		if _, ret := root.table.Step(0, root.kind[i]); root.legal(i, ret) {
			firsts = append(firsts, i)
		}
	}
	outcomes := make([]Result, len(firsts))
	var claimed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(firsts)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A search only reads the sorted history, so the workers share
			// the root's; table, kinds, bitmap and memo are their own.
			c := NewChecker(dt)
			c.ops = root.ops
			c.resolve()
			for {
				b := int(claimed.Add(1)) - 1
				if b >= len(firsts) {
					return
				}
				outcomes[b] = c.checkAfter(firsts[b], completed)
			}
		}()
	}
	wg.Wait()
	res := Result{}
	for _, o := range outcomes {
		res.Explored += o.Explored
		if o.Linearizable && !res.Linearizable {
			res.Linearizable = true
			res.Linearization = o.Linearization
		}
	}
	return res
}

// checkAfter searches the compiled history with ops[first] linearized
// first, from a clean memo; completed is compile's count.
func (c *Checker) checkAfter(first, completed int) Result {
	clear(c.taken)
	clear(c.memo)
	c.visited = 0
	next, ret := c.table.Step(0, c.kind[first])
	if !c.ops[first].Pending() {
		completed--
	}
	c.take(first)
	lin, ok := c.search(next, completed)
	if ok {
		lin = append([]spec.Instance{c.instance(first, ret)}, lin...)
	}
	return Result{Linearizable: ok, Linearization: lin, Explored: c.visited + 1}
}

// CheckTraceParallel is shorthand for CheckParallel(dt, FromTrace(tr), workers).
func CheckTraceParallel(dt spec.DataType, tr *sim.Trace, workers int) Result {
	return CheckParallel(dt, FromTrace(tr), workers)
}
