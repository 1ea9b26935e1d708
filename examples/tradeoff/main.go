// tradeoff: the accessor/mutator latency tradeoff driven by Algorithm 1's
// X parameter (§5 of the paper).
//
// X ranges over [0, d-ε]. Pure mutators respond in X+ε — fastest at X=0;
// pure accessors respond in d-X+ε — fastest at X=d-ε. The sweep measures
// both on a replicated queue and prints the frontier; the measured values
// match the formulas tick-for-tick because the algorithm's latencies are
// timer-driven.
//
//	go run ./examples/tradeoff
package main

import (
	"fmt"
	"log"

	"lintime/internal/harness"
	"lintime/internal/simtime"
)

func main() {
	p := simtime.DefaultParams(5)
	fmt.Printf("X tradeoff on a replicated queue: n=%d, d=%v, u=%v, ε=%v\n\n",
		p.N, p.D, p.U, p.Epsilon)

	points, err := harness.SweepXParallel(p, "queue", 8, 7, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(harness.FormatSweep(points))

	fmt.Println("\nreading the frontier:")
	fmt.Printf("  X = 0:    mutators at their floor ε = %v; accessors pay d+ε = %v\n",
		p.Epsilon, p.D+p.Epsilon)
	fmt.Printf("  X = d-ε:  accessors at their floor 2ε = %v; mutators pay d = %v\n",
		2*p.Epsilon, p.D)
	fmt.Printf("  any X:    mixed operations stay at d+ε = %v; the sum AOP+MOP stays at d+2ε = %v\n",
		p.D+p.Epsilon, p.D+2*p.Epsilon)
	fmt.Printf("  theorem 5 floor for the sum: d+min{ε,u,d/3} = %v\n",
		p.D+simtime.Min(p.Epsilon, simtime.Min(p.U, p.D/3)))
}
