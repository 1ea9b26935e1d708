package serve

import (
	"net"
	"testing"
	"time"

	"lintime/internal/adt"
)

// TestMixedProtocolShardedLoad runs two TCP clients, both pipelining
// keyed operations, against the same sharded router concurrently. After
// the drain, the per-object composition check (the same verification
// `lintime load -check-objects` runs) must hold over the interleaved
// history, and the router must have counted both connections. Runs under
// -race in CI's wire-smoke job.
func TestMixedProtocolShardedLoad(t *testing.T) {
	cfg := ShardSetConfig{Config: testConfig(3), Shards: 2}
	cfg.Seed = 11
	ss, err := NewShardSet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ss.Serve(ln)
	t.Cleanup(func() { ss.Drain(30 * time.Second) })

	dt, err := adt.Lookup("queue")
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	ops := 30
	if testing.Short() {
		ops = 10
	}
	load := func(seed int64) (*Summary, error) {
		c, err := Dial(ln.Addr().String())
		if err != nil {
			return nil, err
		}
		defer c.Close()
		return RunLoad(c, dt, cfg.Params, cfg.Tick, LoadConfig{
			Clients: 2, OpsPerClient: ops, Pipeline: 4,
			Keys: keys, Seed: seed,
		})
	}
	type out struct {
		seed int64
		sum  *Summary
		err  error
	}
	results := make(chan out, 2)
	for _, seed := range []int64{101, 202} {
		seed := seed
		go func() {
			sum, err := load(seed)
			results <- out{seed, sum, err}
		}()
	}
	total := 0
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("load (seed %d): %v", r.seed, r.err)
		}
		if r.sum.TotalOps != 2*ops {
			t.Errorf("load (seed %d) completed %d ops, want %d", r.seed, r.sum.TotalOps, 2*ops)
		}
		total += r.sum.TotalOps
	}

	if err := ss.Drain(30 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	rep := ss.CheckPerObject(0)
	if !rep.OK() {
		t.Errorf("per-object check failed: %+v", rep)
	}
	if rep.Ops != total {
		t.Errorf("checker saw %d ops, clients completed %d", rep.Ops, total)
	}
	if got := ss.fe.connsTotal.Value(); got != 2 {
		t.Errorf("connections = %d, want 2", got)
	}
}
