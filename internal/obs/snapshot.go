package obs

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// SnapshotWriter periodically appends registry snapshots to a JSONL file:
// one Snapshot document per line, stamped with wall-clock milliseconds so
// post-processing can turn counter deltas into rates. Close writes one
// final snapshot — the flush `lintime load` relies on for SIGINT-shortened
// runs — then closes the file.
type SnapshotWriter struct {
	f        *os.File
	regs     []*Registry
	interval time.Duration

	mu   sync.Mutex // serializes writes (ticker loop vs Close)
	err  error      // first write error; sticky
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewSnapshotWriter creates (truncating) the JSONL file and starts the
// periodic writer. interval ≤ 0 disables the ticker — only the final
// Close snapshot is written, which suits short deterministic runs.
func NewSnapshotWriter(path string, interval time.Duration, regs ...*Registry) (*SnapshotWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sw := &SnapshotWriter{
		f: f, regs: regs, interval: interval,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	go sw.loop()
	return sw, nil
}

func (sw *SnapshotWriter) loop() {
	defer close(sw.done)
	if sw.interval <= 0 {
		<-sw.stop
		return
	}
	t := time.NewTicker(sw.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			sw.write()
		case <-sw.stop:
			return
		}
	}
}

func (sw *SnapshotWriter) write() {
	snap := TakeSnapshot(sw.regs...)
	snap.TimeMS = time.Now().UnixMilli()
	b, err := json.Marshal(snap)
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if err == nil {
		_, err = sw.f.Write(append(b, '\n'))
	}
	if err != nil && sw.err == nil {
		sw.err = err
	}
}

// Close stops the ticker, writes one final snapshot, and closes the file.
// It returns the first error the writer encountered. Safe to call more
// than once.
func (sw *SnapshotWriter) Close() error {
	sw.once.Do(func() {
		close(sw.stop)
		<-sw.done
		sw.write()
		sw.mu.Lock()
		defer sw.mu.Unlock()
		if err := sw.f.Close(); err != nil && sw.err == nil {
			sw.err = err
		}
	})
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.err
}
