package serve

import (
	"errors"
	"testing"
	"time"

	"lintime/internal/classify"
	"lintime/internal/harness"
	"lintime/internal/quorum"
	"lintime/internal/spec"
)

// quorumConfig is testConfig on the ABD quorum backend: TypeName is left
// empty to exercise the register default.
func quorumConfig(n int) Config {
	cfg := testConfig(n)
	cfg.Backend = harness.AlgQuorum
	cfg.TypeName = ""
	return cfg
}

func startQuorumServer(t *testing.T, n int) *Server {
	t.Helper()
	s, err := New(quorumConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() { s.Drain(30 * time.Second) })
	return s
}

// TestServerQuorumBackend pins the backend seam: the quorum server
// defaults to the register type, serves reads and writes, and judges
// every class against the flat 4d bound instead of Algorithm 1's
// per-class formulas.
func TestServerQuorumBackend(t *testing.T) {
	s := startQuorumServer(t, 3)
	if got := s.Type().Name(); got != "register" {
		t.Fatalf("quorum backend serves type %q, want register", got)
	}
	if r, err := s.Call(quorum.OpWrite, 5); err != nil || r.Ret != nil {
		t.Errorf("write = (%v, %v)", r.Ret, err)
	}
	if r, err := s.Call(quorum.OpRead, nil); err != nil || !spec.ValuesEqual(r.Ret, 5) {
		t.Errorf("read = (%v, %v), want 5", r.Ret, err)
	}
	want := 4 * s.Config().Params.D
	for _, class := range []classify.Class{classify.PureAccessor, classify.PureMutator, classify.Mixed} {
		if got := s.Formula(class); got != want {
			t.Errorf("Formula(%v) = %v, want %v (class-independent 4d)", class, got, want)
		}
	}
	// A deployment resolves the empty TypeName the same way, so its one
	// shard serves what New serves.
	ss, err := NewShardSet(ShardSetConfig{Config: quorumConfig(2)})
	if err != nil {
		t.Fatalf("NewShardSet on the quorum backend: %v", err)
	}
	if got := ss.Shard(0).Type().Name(); got != "register" {
		t.Errorf("quorum deployment serves type %q, want register", got)
	}
	// Rejecting a non-register type is the config error, not a panic.
	cfg := quorumConfig(2)
	cfg.TypeName = "queue"
	if _, err := New(cfg); err == nil {
		t.Error("quorum backend with a queue type should error")
	}
	cfg = quorumConfig(2)
	cfg.Backend = "bogus"
	if _, err := New(cfg); err == nil {
		t.Error("unknown backend should error")
	}
}

// TestServerQuorumCrashMinority is the serving-layer crash story: crash
// a minority mid-run and the router drops the dead replica from rotation
// while the survivors keep completing operations against the remaining
// majority — including reads of data written before the crash.
func TestServerQuorumCrashMinority(t *testing.T) {
	s := startQuorumServer(t, 3)
	if _, err := s.Call(quorum.OpWrite, 5); err != nil {
		t.Fatal(err)
	}
	s.Crash(1)
	if !s.Crashed(1) {
		t.Fatal("Crashed(1) = false after Crash")
	}
	s.Crash(1) // idempotent
	// Every post-crash call routes around the dead replica: with one
	// round-robin slot dead, eight calls land on both survivors.
	for i := 0; i < 4; i++ {
		if r, err := s.Call(quorum.OpRead, nil); err != nil || !spec.ValuesEqual(r.Ret, 5) {
			t.Fatalf("post-crash read %d = (%v, %v), want 5", i, r.Ret, err)
		}
	}
	if _, err := s.Call(quorum.OpWrite, 9); err != nil {
		t.Fatal(err)
	}
	if r, err := s.Call(quorum.OpRead, nil); err != nil || !spec.ValuesEqual(r.Ret, 9) {
		t.Errorf("read after post-crash write = (%v, %v), want 9", r.Ret, err)
	}
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatalf("drain after crash: %v", err)
	}
}

// TestServerAllCrashed pins the no-quorum endpoint: once every replica
// is crashed the router has nowhere to send work and Call fails fast
// with ErrAllCrashed instead of queueing onto a dead cluster.
func TestServerAllCrashed(t *testing.T) {
	s := startQuorumServer(t, 2)
	s.Crash(0)
	s.Crash(1)
	if _, err := s.Call(quorum.OpRead, nil); !errors.Is(err, ErrAllCrashed) {
		t.Errorf("Call with all replicas crashed = %v, want ErrAllCrashed", err)
	}
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestRunLoadQuorumCrashMidRun is the acceptance scenario in miniature:
// a closed-loop load run on the quorum backend survives a minority crash
// injected mid-run — calls that raced the crash are retried and counted
// as Unavailable, everything else completes within the 4d SLO. (The full
// version is `lintime load -backend quorum -n 3 -duration 10s -crash 2@5s`.)
func TestRunLoadQuorumCrashMidRun(t *testing.T) {
	ss, err := NewShardSet(ShardSetConfig{Config: quorumConfig(3)})
	if err != nil {
		t.Fatal(err)
	}
	ss.Start()
	t.Cleanup(func() { ss.Drain(30 * time.Second) })
	s := ss.Shard(0)
	timer := time.AfterFunc(300*time.Millisecond, func() { s.Crash(2) })
	defer timer.Stop()
	p := s.Config().Params
	sum, err := RunLoad(ss, s.Type(), p, s.Config().Tick, LoadConfig{
		Clients:  4,
		Duration: time.Second,
		Seed:     11,
		Mix: []harness.OpPick{
			{Op: quorum.OpWrite, Weight: 1},
			{Op: quorum.OpRead, Weight: 1},
		},
		Backend: harness.AlgQuorum,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Crashed(2) {
		t.Fatal("crash timer did not fire within the run")
	}
	if sum.TotalOps == 0 {
		t.Fatal("no operations completed")
	}
	for name, rep := range sum.PerClass {
		if rep.FormulaTicks != int64(4*p.D) {
			t.Errorf("class %s judged against %d ticks, want 4d = %d", name, rep.FormulaTicks, 4*p.D)
		}
		if !rep.WithinBudget {
			t.Errorf("class %s p99 %d exceeds 4d + budget %d", name, rep.Latency.P99, rep.BudgetTicks)
		}
	}
	if err := ss.Drain(30 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
