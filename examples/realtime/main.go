// realtime: the same Algorithm 1 replicas, on the same event engine,
// running live on the wall clock instead of in virtual time.
//
// Three replicas of a shared queue run in one cluster; message delays are
// real waits drawn from [d-u, d] ticks (1 tick = 1ms here) and local
// clocks carry constant offsets within ε. The printed latencies are wall
// clock and approximate the virtual-time formulas up to the host's timer
// lateness.
//
//	go run ./examples/realtime
package main

import (
	"fmt"
	"log"
	"time"

	"lintime/internal/adt"
	"lintime/internal/harness"
	"lintime/internal/rtnet"
	"lintime/internal/sim"
	"lintime/internal/simtime"
)

func main() {
	u := simtime.Duration(20)
	p := simtime.Params{N: 3, D: 40, U: u, Epsilon: simtime.OptimalEpsilon(3, u), X: 10}
	tick := time.Millisecond
	fmt.Printf("live cluster: n=%d, d=%v ticks (%v), ε=%v, X=%v, 1 tick = %v\n\n",
		p.N, p.D, time.Duration(p.D)*tick, p.Epsilon, p.X, tick)

	alg1, err := harness.Lookup("")
	if err != nil {
		log.Fatal(err)
	}
	queue := adt.NewQueue()
	build, err := alg1.Builder(p, queue, "")
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := rtnet.NewCluster(rtnet.Params{Params: p}, tick, sim.SpreadOffsets(p.N, p.Epsilon), build(queue), 1)
	if err != nil {
		log.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()

	show := func(proc sim.ProcID, op string, arg any) {
		r, err := cluster.Call(proc, op, arg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  p%d %-8s arg=%-4v → %-6v latency %3d ticks (theory: %v)\n",
			proc, op, arg, r.Ret, r.Latency(), theory(p, op))
	}

	show(0, adt.OpEnqueue, 10)
	show(1, adt.OpEnqueue, 20)
	time.Sleep(3 * time.Duration(p.D) * tick) // let replication settle
	show(2, adt.OpPeek, nil)
	show(2, adt.OpDequeue, nil)
	show(0, adt.OpPeek, nil)

	fmt.Println("\nsame Replica type and event engine as the simulator — only the clock changed")
}

func theory(p simtime.Params, op string) simtime.Duration {
	switch op {
	case adt.OpEnqueue:
		return p.X + p.Epsilon
	case adt.OpPeek:
		return p.D - p.X + p.Epsilon
	default:
		return p.D + p.Epsilon
	}
}
