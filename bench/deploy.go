package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"lintime/internal/adt"
	"lintime/internal/harness"
	"lintime/internal/lincheck"
	"lintime/internal/obs"
	"lintime/internal/rtnet"
	"lintime/internal/serve"
	"lintime/internal/simtime"
)

// The three live deployments, each built only through the serving layer's
// public constructors: the benchmark measures them from outside.

func modelParams(n int) simtime.Params {
	u := simtime.Duration(modelD / 2)
	eps := simtime.OptimalEpsilon(n, u)
	return simtime.Params{N: n, D: modelD, U: u, Epsilon: eps, X: eps}
}

const drainTimeout = 30 * time.Second

// deployment is a started cluster (or shard set) plus what the benchmark
// needs to drive, observe, shut down and check it.
type deployment struct {
	target
	tick  time.Duration
	slots int // replicas that hold one pending operation each
	regs  []*obs.Registry
	colls []*obs.Collector // one per cluster when traced
	wire  *countingListener
	// crash, when non-nil, is the fault injected at the midpoint of the
	// window; it returns how many slots stay live.
	crash func() int
	drain func() error
	// check verifies the histories recorded so far (call after drain) and
	// returns how many operations sit on objects that failed.
	check func(log *liveLog) (badOps int, err error)
}

// firstOps completes one operation per cluster, so set-up time covers
// everything up to the first reply.
func (d *deployment) firstOps(reqs []request) error {
	for i, req := range reqs {
		if _, err := d.call(i, req); err != nil {
			return fmt.Errorf("first operation: %w", err)
		}
	}
	return nil
}

func newCollectors(n int) []*obs.Collector {
	colls := make([]*obs.Collector, n)
	for i := range colls {
		colls[i] = obs.NewCollector(traceRing)
	}
	return colls
}

// traceRing is how many completed span trees each cluster's collector
// retains for trace.json.
const traceRing = 512

// deployAlg1 starts the 4-shard Algorithm 1 deployment; with tcp it also
// serves it on a loopback listener and dials one binary-codec client per
// GOMAXPROCS.
func deployAlg1(seed int64, tick time.Duration, tcp, traced bool, conns int) (*deployment, error) {
	p := modelParams(modelN)
	ss, err := serve.NewShardSet(serve.ShardSetConfig{
		Config: serve.Config{Params: p, TypeName: "queue", Tick: tick, Offsets: harness.OffZero,
			Seed: harness.DeriveSeed(seed, "bench/alg1/cluster")},
		Shards: alg1Shards,
	})
	if err != nil {
		return nil, err
	}
	d := &deployment{tick: tick, slots: alg1Shards * p.N, regs: ss.Registries()}
	if traced {
		d.colls = newCollectors(alg1Shards)
		ss.SetTracers(func(shard int) obs.Tracer { return d.colls[shard] })
	}
	ss.Start()
	d.shardOf = ss.ShardFor
	d.boundOf = func(resp rtnet.Response) int32 { return int32(serve.FormulaTicks(p, resp.Class)) }
	d.call = func(_ int, req request) (rtnet.Response, error) { return ss.CallKey(req.key, req.op, req.arg) }
	d.drain = func() error { return ss.Drain(drainTimeout) }
	d.check = func(*liveLog) (int, error) {
		var overflows int64
		for i := 0; i < ss.Shards(); i++ {
			if o := ss.Shard(i).Stats().Overflow; o != nil {
				overflows += o.Count
			}
		}
		rep, err := withTimeout(func() serve.ObjectCheckReport { return ss.CheckPerObject(gomaxprocs()) })
		if err != nil {
			return 0, err
		}
		if rep.OK() && overflows == 0 {
			return 0, nil
		}
		// A routing violation or an overflow taints every operation; a
		// non-linearizable object only its own share of them (keys are
		// drawn uniformly).
		bad := rep.Ops
		if len(rep.RoutingViolations) == 0 && overflows == 0 {
			bad = rep.Ops * len(rep.NonLinearizable) / rep.Keys
		}
		return bad, fmt.Errorf("per-object check: %d routing violations, non-linearizable objects %v, %d inbox overflows",
			len(rep.RoutingViolations), rep.NonLinearizable, overflows)
	}
	if !tcp {
		return d, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.wire = &countingListener{Listener: ln}
	served := make(chan error, 1)
	go func() { served <- ss.Serve(d.wire) }()
	clients := make([]*serve.Client, conns)
	for i := range clients {
		c, err := serve.DialCodec(ln.Addr().String(), serve.CodecBinary)
		if err != nil {
			_ = ss.Drain(drainTimeout)
			return nil, err
		}
		clients[i] = c
	}
	d.conns = conns
	d.call = func(conn int, req request) (rtnet.Response, error) {
		return clients[conn%conns].CallKey(req.key, req.op, req.arg)
	}
	d.drain = func() error {
		// Drain closes the listener, answers what is in flight and closes
		// the connections; the client sides close after it.
		err := ss.Drain(drainTimeout)
		if serr := <-served; err == nil {
			err = serr
		}
		for _, c := range clients {
			_ = c.Close() // the server already closed its end
		}
		return err
	}
	return d, nil
}

// firstAlg1Requests is one peek per shard: a read that leaves every queue
// as the workload expects to find it.
func firstAlg1Requests(d *deployment) []request {
	reqs := make([]request, 0, alg1Shards)
	seen := map[int]bool{}
	for _, key := range objectKeys(alg1Keys) {
		if sh := d.shardOf(key); !seen[sh] {
			seen[sh] = true
			reqs = append(reqs, request{key: key, op: adt.OpPeek})
		}
	}
	return reqs
}

// deployQuorum starts the single ABD quorum register cluster.
func deployQuorum(seed int64, tick time.Duration, traced bool) (*deployment, error) {
	p := modelParams(modelN)
	s, err := serve.New(serve.Config{Params: p, Backend: harness.AlgQuorum, Tick: tick,
		Offsets: harness.OffZero, Seed: harness.DeriveSeed(seed, "bench/quorum/cluster")})
	if err != nil {
		return nil, err
	}
	d := &deployment{tick: tick, slots: p.N, regs: []*obs.Registry{s.Registry()}}
	if traced {
		d.colls = newCollectors(1)
		s.SetTracer(d.colls[0])
	}
	s.Start()
	bound := int32(serve.QuorumFormulaTicks(p))
	d.shardOf = func(string) int { return 0 }
	d.boundOf = func(rtnet.Response) int32 { return bound }
	d.call = func(_ int, req request) (rtnet.Response, error) { return s.Call(req.op, req.arg) }
	d.crash = func() int {
		s.Crash(3)
		s.Crash(4)
		return p.N - 2
	}
	d.drain = func() error { return s.Drain(drainTimeout) }
	d.check = func(log *liveLog) (int, error) {
		if o := s.Stats().Overflow; o != nil {
			return s.Stats().Ops, fmt.Errorf("%d inbox overflows", o.Count)
		}
		// A call that failed with ErrCrashed may still have taken effect (an
		// unacknowledged write can reach a majority), so it joins the
		// history as a pending operation; checking completed operations
		// alone reports false violations. Its invoke instant is the latest
		// tick known to precede the call: an earlier one (0) is as sound but
		// makes the checker try the operation first at every step and
		// backtrack through the whole history.
		history := lincheck.FromTrace(s.Trace())
		for _, c := range log.crashed {
			history = append(history, lincheck.Op{ID: len(history), Name: c.req.op, Arg: c.req.arg,
				Invoke: simtime.Time(c.after), Respond: simtime.Infinity})
		}
		res, err := withTimeout(func() lincheck.Result {
			return lincheck.CheckParallel(s.Type(), history, gomaxprocs())
		})
		if err != nil {
			return len(history), err
		}
		if !res.Linearizable {
			return len(history), fmt.Errorf("quorum history of %d operations (%d pending) is not linearizable",
				len(history), len(log.crashed))
		}
		return 0, nil
	}
	return d, nil
}

// withTimeout runs a check that has no cancellation of its own; one still
// running at checkTimeout counts as a failure (the abandoned search ends
// with the process).
func withTimeout[T any](check func() T) (T, error) {
	done := make(chan T, 1)
	go func() { done <- check() }()
	select {
	case res := <-done:
		return res, nil
	case <-time.After(checkTimeout):
		var zero T
		return zero, fmt.Errorf("correctness check still running after %v", checkTimeout)
	}
}

// countingListener wraps the accepted connections so the benchmark can
// count wire traffic without touching the serving layer.
type countingListener struct {
	net.Listener
	bytes atomic.Int64 // both directions
	calls atomic.Int64 // Read plus Write calls that moved data: the server's socket operations
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

// CloseRead keeps the serving layer's graceful shutdown path (stop reads,
// flush pending responses, then close) available through the wrapper.
func (c *countingConn) CloseRead() error {
	if cr, ok := c.Conn.(interface{ CloseRead() error }); ok {
		return cr.CloseRead()
	}
	return c.Conn.Close()
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.l.bytes.Add(int64(n))
		c.l.calls.Add(1)
	}
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if n > 0 {
		c.l.bytes.Add(int64(n))
		c.l.calls.Add(1)
	}
	return n, err
}
