// lowerbound: a walkthrough of the paper's shifting arguments, executed.
//
// Each theorem's proof is run as a real experiment: a hypothetical
// algorithm is configured *below* the bound, the proof's runs are executed
// in the simulator, the recorded trace is shifted (and for Theorems 4-5
// chopped and re-assembled) exactly as in the paper, and the
// linearizability checker exhibits the violation. Re-running at the bound
// shows the construction lose its teeth — the bounds are tight where the
// paper says they are.
//
//	go run ./examples/lowerbound
package main

import (
	"fmt"
	"log"

	"lintime/internal/bounds"
	"lintime/internal/lowerbound"
	"lintime/internal/simtime"
)

func main() {
	p := simtime.DefaultParams(5)
	m := bounds.MinPairFree(p)
	fmt.Printf("model: n=%d, d=%v, u=%v, ε=%v; m = min{ε,u,d/3} = %v\n\n", p.N, p.D, p.U, p.Epsilon, m)

	fmt.Println("=== Theorem 2: pure accessors need u/4 ===")
	show(lowerbound.Theorem2(p, "queue", "peek", p.U/4-1))
	show(lowerbound.Theorem2(p, "queue", "peek", p.U/4))

	fmt.Println("=== Theorem 3: last-sensitive mutators need (1-1/k)u ===")
	kd := simtime.Duration(p.N)
	show(lowerbound.Theorem3(p, "queue", p.N, p.U-p.U/kd-1))
	show(lowerbound.Theorem3(p, "queue", p.N, p.U-p.U/kd))

	fmt.Println("=== Theorem 4: pair-free operations need d+m ===")
	show(lowerbound.Theorem4(p, "queue", "dequeue", p.D+m-1))
	show(lowerbound.Theorem4(p, "queue", "dequeue", p.D+m))

	fmt.Println("=== Theorem 5: discriminated mutator+accessor sums need d+m ===")
	show(lowerbound.Theorem5(p, "queue", "enqueue", "peek", p.D-2*m, 3*m-1))
	show(lowerbound.Theorem5(p, "queue", "enqueue", "peek", p.D-2*m, 3*m))
}

func show(rep *lowerbound.Report, err error) {
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep)
}
