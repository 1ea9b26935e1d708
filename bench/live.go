package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lintime/internal/rtnet"
)

// The load generators of the live workloads: a closed loop (each worker
// sends its next request when the previous reply arrives) and an open loop
// (requests leave on a seeded schedule whatever the replies do, and are
// timed from when they were due).

// callFunc sends one request to the deployment; conn picks the TCP
// connection (ignored in process).
type callFunc func(conn int, req request) (rtnet.Response, error)

// sample is one completed operation. Times are nanoseconds from the start
// of the measured window (negative during warm-up). The four instants
// start ≤ callStart ≤ callEnd ≤ done bound the benchmark's own spans:
// client.call = [start, done] and the call into the deployment =
// [callStart, callEnd]; invoke/respond are the service span in cluster
// ticks.
type sample struct {
	start     int64 // due time (open loop) or the moment the worker began this request (closed loop)
	callStart int64
	callEnd   int64
	done      int64
	invoke    int64 // cluster ticks
	respond   int64
	seq       int64 // cluster-unique invocation id (in process only)
	lat       int32 // service latency in ticks
	bound     int32 // the operation's class bound in ticks
	proc      int32
	shard     int32
	op        string
	class     string
}

func (s sample) ratio() tickRatio { return tickRatio{s.lat, s.bound} }

// window fixes the instants of one measured pass.
type window struct {
	genStart time.Time // load starts here; [genStart, t0) is the unmeasured warm-up
	t0       time.Time
	length   time.Duration
}

func newWindow(warm, length time.Duration) window {
	now := time.Now()
	return window{genStart: now, t0: now.Add(warm), length: length}
}

func (w window) end() time.Time             { return w.t0.Add(w.length) }
func (w window) since(t time.Time) int64    { return int64(t.Sub(w.t0)) }
func (w window) contains(offset int64) bool { return offset >= 0 && offset < int64(w.length) }

// liveLog is what a pass records.
type liveLog struct {
	mu       sync.Mutex
	samples  []sample
	crashed  []crashedCall // calls that failed with ErrCrashed: pending operations for the checker
	errs     int           // calls that failed with any other error
	firstErr error
	refused  int        // open loop: arrivals refused at the in-flight cap
	issued   int        // requests issued inside the window
	lateness []lateness // requests issued inside the window
}

// lateness is how late the generator issued one request: behind its due
// time (open loop) or after the reply that freed the worker (closed loop).
type lateness struct {
	at int64 // nanoseconds from the start of the window
	us float64
}

// crashedCall is a call whose replica crashed under it. It may still have
// taken effect, so the checker sees it as a pending operation invoked no
// earlier than after: the respond tick of the caller's previous reply.
type crashedCall struct {
	req   request
	after int64
}

func (l *liveLog) fail(err error) {
	l.mu.Lock()
	l.errs++
	if l.firstErr == nil {
		l.firstErr = err
	}
	l.mu.Unlock()
}

// deliver calls the deployment until the request is answered, retrying on
// a live replica when the chosen one had just crashed (the crash's
// availability cost, which the log counts). ok is false on any other
// error. after is the respond tick of the caller's previous reply.
func (l *liveLog) deliver(call callFunc, conn int, req request, after int64) (resp rtnet.Response, ok bool) {
	for {
		resp, err := call(conn, req)
		if err == nil {
			return resp, true
		}
		if !errors.Is(err, rtnet.ErrCrashed) {
			l.fail(fmt.Errorf("%s: %w", req.op, err))
			return resp, false
		}
		l.mu.Lock()
		l.crashed = append(l.crashed, crashedCall{req, after})
		l.mu.Unlock()
	}
}

// target is what the generators need to know about a deployment.
type target struct {
	call    callFunc
	conns   int
	shardOf func(key string) int
	boundOf func(resp rtnet.Response) int32
}

func (t target) sampleOf(req request, resp rtnet.Response) sample {
	return sample{
		invoke: int64(resp.Invoke), respond: int64(resp.Respond), seq: resp.Seq,
		lat: int32(resp.Latency()), bound: t.boundOf(resp), proc: int32(resp.Proc),
		shard: int32(t.shardOf(req.key)), op: req.op, class: resp.Class.String(),
	}
}

// runClosed drives the closed loop until the window ends: every stream is
// one client with pipeline workers, each keeping one request in flight.
func runClosed(w window, streams []*opStream, pipeline int, t target, log *liveLog) {
	var wg sync.WaitGroup
	end := w.end()
	for c, stream := range streams {
		for k := 0; k < pipeline; k++ {
			wg.Add(1)
			go func(conn int) {
				defer wg.Done()
				prevDone := time.Time{}
				var prevRespond int64
				for {
					start := time.Now()
					if !start.Before(end) {
						return
					}
					req := stream.next()
					callStart := time.Now()
					resp, ok := log.deliver(t.call, conn, req, prevRespond)
					callEnd := time.Now()
					if !ok {
						return
					}
					prevRespond = int64(resp.Respond)
					s := t.sampleOf(req, resp)
					s.start, s.callStart, s.callEnd = w.since(start), w.since(callStart), w.since(callEnd)
					done := time.Now()
					s.done = w.since(done)
					log.mu.Lock()
					log.samples = append(log.samples, s)
					if w.contains(s.start) {
						log.issued++
						if !prevDone.IsZero() {
							log.lateness = append(log.lateness, lateness{s.start, float64(callStart.Sub(prevDone)) / 1e3})
						}
					}
					log.mu.Unlock()
					prevDone = done
				}
			}((c*pipeline + k) % max(t.conns, 1))
		}
	}
	wg.Wait()
}

// runOpen dispatches one request per arrival at its due time (offsets from
// w.genStart), never waiting for replies: a slow deployment sees the same
// offered load and its backlog shows as latency from the due time. An
// arrival that finds inflightCap requests outstanding is refused and
// counted as failed.
func runOpen(w window, arrivals []time.Duration, stream *opStream, inflightCap int, t target, log *liveLog) {
	var wg sync.WaitGroup
	var inflight atomic.Int64
	for i, offset := range arrivals {
		due := w.genStart.Add(offset)
		sleepUntil(due)
		issued := time.Now()
		req := stream.next() // drawn even when refused: the sequence is a function of the seed alone
		inWindow := w.contains(w.since(due))
		n := inflight.Add(1)
		log.mu.Lock()
		if inWindow {
			log.issued++
			log.lateness = append(log.lateness, lateness{w.since(due), float64(issued.Sub(due)) / 1e3})
		}
		refuse := int(n) > inflightCap
		if refuse && inWindow {
			log.refused++
		}
		log.mu.Unlock()
		if refuse {
			inflight.Add(-1)
			continue
		}
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			defer inflight.Add(-1)
			callStart := time.Now()
			resp, ok := log.deliver(t.call, conn, req, 0)
			callEnd := time.Now()
			if !ok {
				return
			}
			s := t.sampleOf(req, resp)
			s.start, s.callStart, s.callEnd = w.since(due), w.since(callStart), w.since(callEnd)
			s.done = w.since(time.Now())
			log.mu.Lock()
			log.samples = append(log.samples, s)
			log.mu.Unlock()
		}(i % max(t.conns, 1))
	}
	wg.Wait()
}

// sleepUntil blocks until t on the operating system's clock. time.Sleep in
// a process whose Ps are all idle wakes up to a millisecond late (the Go
// netpoller sleeps in whole milliseconds), which at 1000 arrivals a second
// would make every request half a millisecond late on average; nanosleep
// blocks only this goroutine's thread and wakes within tens of
// microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // interrupted early by a signal: the loop sleeps the rest
	}
}
