package lowerbound

import (
	"fmt"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/spec"
)

// Class names what Theorem thm (2, 4 or 5) runs on.
func Class(thm int) string {
	return map[int]string{2: "pure accessor", 4: "pair-free op", 5: "(mutator, accessor) pair with discriminators"}[thm]
}

// witness is classify's witness that o is in Theorem thm's class, and
// whether it is. Theorems 2 and 4 run on every op in their class, with
// the witness as their scenario.
func witness(thm int, o classify.OpReport) (classify.Witness, bool) {
	if thm == 2 {
		return o.AccessorWitness, o.Class == classify.PureAccessor
	}
	return o.PairFreeWitness, thm == 4 && o.PairFree
}

// Ops lists, in the type's op order, what Theorem thm runs on in a
// classified type, named as the theorem's reports name it: for Theorems
// 2 and 4 each op that classify puts in the theorem's class, for Theorem
// 3 the mutator of the type's stock scenario, and for Theorem 5 each pair
// that classify accepts, as op+aop.
func Ops(thm int, rep classify.Report) []string {
	var ops []string
	if thm == 5 {
		dt, err := adt.Lookup(rep.Type)
		if err != nil {
			return nil
		}
		for _, w := range classify.NewExplorer(dt, classify.DefaultConfig()).Theorem5Pairs() {
			ops = append(ops, w.Pair())
		}
		return ops
	}
	sc3, _ := thm3Scenario(rep.Type)
	for _, o := range rep.Ops {
		if _, in := witness(thm, o); in || thm == 3 && o.Op == sc3.Op {
			ops = append(ops, o.Op)
		}
	}
	return ops
}

// Thm3Scenario instantiates Theorem 3 for a concrete last-sensitive
// mutator: k processes concurrently invoke distinct instances, and a
// probe sequence executed afterwards at p0 reveals which instance was
// linearized last.
type Thm3Scenario struct {
	TypeName string
	Op       string
	// Args returns k distinct arguments, or nil if the type cannot
	// provide that many.
	Args func(k int) []spec.Value
	// Rho builds an optional prefix executed sequentially by p0 before
	// the concurrent phase (nil for none).
	Rho func(k int) []spec.Instance
	// Probes is the post-quiescence revealing sequence (invoked at p0).
	Probes func(k int) []spec.Invocation
	// LastIndex maps the probe responses to the index (into Args) of the
	// instance revealed last.
	LastIndex func(args []spec.Value, probeRets []spec.Value) (int, error)
}

// intArgsFn returns 0..k-1 as arguments.
func intArgsFn(k int) []spec.Value {
	out := make([]spec.Value, k)
	for i := range out {
		out[i] = i
	}
	return out
}

// indexOfValue finds ret among args.
func indexOfValue(args []spec.Value, ret spec.Value) (int, error) {
	for i, a := range args {
		if spec.ValuesEqual(a, ret) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("lowerbound: probe revealed %v, not one of the instances", ret)
}

// Thm3Scenarios are the stock Theorem 3 specializations, matching
// Corollary 1 (write, push, enqueue) plus the move-insert tree and the
// deque.
func Thm3Scenarios() []Thm3Scenario {
	repeat := func(op string, count func(k int) int) func(int) []spec.Invocation {
		return func(k int) []spec.Invocation {
			out := make([]spec.Invocation, count(k))
			for i := range out {
				out[i] = spec.Invocation{Op: op}
			}
			return out
		}
	}
	return []Thm3Scenario{
		{
			TypeName: "queue", Op: adt.OpEnqueue, Args: intArgsFn,
			Probes: repeat(adt.OpDequeue, func(k int) int { return k }),
			LastIndex: func(args, rets []spec.Value) (int, error) {
				// FIFO: the last dequeue returns the last enqueue.
				return indexOfValue(args, rets[len(rets)-1])
			},
		},
		{
			TypeName: "stack", Op: adt.OpPush, Args: intArgsFn,
			Probes: repeat(adt.OpPop, func(k int) int { return 1 }),
			LastIndex: func(args, rets []spec.Value) (int, error) {
				// LIFO: the first pop returns the last push.
				return indexOfValue(args, rets[0])
			},
		},
		{
			TypeName: "register", Op: adt.OpWrite, Args: intArgsFn,
			Probes: repeat(adt.OpRead, func(k int) int { return 1 }),
			LastIndex: func(args, rets []spec.Value) (int, error) {
				// The register holds the last write.
				return indexOfValue(args, rets[0])
			},
		},
		{
			TypeName: "log", Op: adt.OpAppend, Args: intArgsFn,
			Probes: repeat(adt.OpLast, func(k int) int { return 1 }),
			LastIndex: func(args, rets []spec.Value) (int, error) {
				return indexOfValue(args, rets[0])
			},
		},
		{
			TypeName: "deque", Op: adt.OpPushFront, Args: intArgsFn,
			Probes: repeat(adt.OpPopFront, func(k int) int { return 1 }),
			LastIndex: func(args, rets []spec.Value) (int, error) {
				// The last pushFront is the front.
				return indexOfValue(args, rets[0])
			},
		},
		{
			TypeName: "tree", Op: adt.OpInsert,
			// Distinct instances: move node 2 under parent i of a chain
			// 0→1→3→5→… built by ρ; the last insert wins, and depth(2)
			// reveals the winning parent's depth.
			Args: func(k int) []spec.Value {
				if k > len(treeChain)+1 {
					return nil
				}
				out := make([]spec.Value, k)
				out[0] = adt.Edge{P: 0, C: 2}
				for i := 1; i < k; i++ {
					out[i] = adt.Edge{P: treeChain[i-1], C: 2}
				}
				return out
			},
			Rho: treeRho,
			Probes: func(int) []spec.Invocation {
				return []spec.Invocation{{Op: adt.OpDepth, Arg: 2}}
			},
			LastIndex: func(args, rets []spec.Value) (int, error) {
				// depth(2) = 1 + depth of the winning parent; the chain
				// puts parent i at depth i.
				d, ok := rets[0].(int)
				if !ok || d < 1 {
					return 0, fmt.Errorf("lowerbound: depth probe returned %v", rets[0])
				}
				return d - 1, nil
			},
		},
	}
}

// treeChain is the chain of non-root parents for the tree scenario:
// insert(0,1), insert(1,3), insert(3,5), ... built as the prefix ρ.
var treeChain = []int{1, 3, 5, 7, 9, 11, 13}

// treeRho builds the prefix instance sequence for the tree scenario with
// k parents (chain of k-1 nodes under the root).
func treeRho(k int) []spec.Instance {
	var out []spec.Instance
	prev := 0
	for i := 0; i < k-1; i++ {
		out = append(out, spec.Instance{Op: adt.OpInsert, Arg: adt.Edge{P: prev, C: treeChain[i]}})
		prev = treeChain[i]
	}
	return out
}

// thm3Scenario returns Theorem 3's stock scenario for a type.
func thm3Scenario(typeName string) (Thm3Scenario, error) {
	for _, sc := range Thm3Scenarios() {
		if sc.TypeName == typeName {
			return sc, nil
		}
	}
	return Thm3Scenario{}, fmt.Errorf("lowerbound: no Theorem 3 scenario for type %q", typeName)
}

// ScenarioTypes lists the types that have a stock Theorem 3 scenario, in
// table order.
func ScenarioTypes() []string {
	var out []string
	for _, sc := range Thm3Scenarios() {
		out = append(out, sc.TypeName)
	}
	return out
}
