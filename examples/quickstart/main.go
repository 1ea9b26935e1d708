// Quickstart: a linearizable replicated FIFO queue on five simulated
// processes.
//
// Five processes share one queue implemented by Algorithm 1. Each process
// holds a full replica; enqueues respond after X+ε, peeks after d-X+ε,
// and dequeues after d+ε — far below the 2d of the folklore algorithms.
// The run is recorded, its linearizability verified, and the latencies
// compared against the theory.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/harness"
	"lintime/internal/lincheck"
	"lintime/internal/sim"
	"lintime/internal/simtime"
)

func main() {
	// The partially synchronous model: 5 processes, message delays in
	// [d-u, d] = [10080, 20160] ticks, clocks synchronized to within
	// ε = (1-1/5)u, and the tradeoff parameter X set to ε.
	p := simtime.DefaultParams(5)
	fmt.Printf("model: n=%d, delays in [%v, %v], ε=%v, X=%v\n\n",
		p.N, p.MinDelay(), p.D, p.Epsilon, p.X)

	// Classify the queue's operations from its sequential specification:
	// enqueue is a pure mutator, peek a pure accessor, dequeue mixed.
	queue := adt.NewQueue()
	report := classify.Classify(queue, classify.DefaultConfig())
	fmt.Print(report)

	// Build one Algorithm 1 replica per process — through the backend
	// table, like every other consumer — and wire them to a simulated
	// network with worst-case (maximum) delays.
	alg1, err := harness.Lookup("")
	if err != nil {
		log.Fatal(err)
	}
	build, err := alg1.Builder(p, queue, "", nil)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := sim.NewEngine(p, sim.SpreadOffsets(p.N, p.Epsilon),
		sim.UniformNetwork{D: p.D}, build(queue))
	if err != nil {
		log.Fatal(err)
	}

	// Processes 0-2 enqueue concurrently; later, processes 3 and 4 peek
	// and dequeue.
	eng.InvokeAt(0, 0, adt.OpEnqueue, 100)
	eng.InvokeAt(1, 50, adt.OpEnqueue, 200)
	eng.InvokeAt(2, 100, adt.OpEnqueue, 300)
	eng.InvokeAt(3, 2*simtime.Time(p.D), adt.OpPeek, nil)
	eng.InvokeAt(4, 3*simtime.Time(p.D), adt.OpDequeue, nil)
	eng.InvokeAt(3, 5*simtime.Time(p.D), adt.OpPeek, nil)

	trace := eng.Run()
	fmt.Println("\noperations (invoke → respond, latency):")
	for _, op := range trace.CompletedOps() {
		fmt.Printf("  p%d %-8s arg=%-4v ret=%-6v [%v → %v]  latency %v\n",
			op.Proc, op.Op, op.Arg, op.Ret, op.InvokeTime, op.RespondTime, op.Latency())
	}

	// The whole run is linearizable, and every replica converged.
	res := lincheck.CheckTrace(queue, trace)
	fmt.Printf("\nlinearizable: %v\n", res.Linearizable)
	fmt.Printf("latency bounds: enqueue ≤ X+ε = %v, peek ≤ d-X+ε = %v, dequeue ≤ d+ε = %v (folklore: 2d = %v)\n",
		p.X+p.Epsilon, p.D-p.X+p.Epsilon, p.D+p.Epsilon, 2*p.D)
}
