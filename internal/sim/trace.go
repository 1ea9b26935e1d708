package sim

import (
	"fmt"
	"sort"

	"lintime/internal/simtime"
)

// StepKind labels the trigger of a recorded step, matching the three
// event kinds of the paper's state-machine model.
type StepKind int

// Step kinds.
const (
	StepInvoke StepKind = iota
	StepDeliver
	StepTimer
)

// String implements fmt.Stringer.
func (k StepKind) String() string {
	switch k {
	case StepInvoke:
		return "invoke"
	case StepDeliver:
		return "deliver"
	case StepTimer:
		return "timer"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// StepRecord is one step of a process's timed view: the real time at which
// an event was processed.
type StepRecord struct {
	Proc ProcID
	Time simtime.Time
	Kind StepKind
}

// OpRecord is an operation instance extracted from a run: the invocation
// and response values with their real times. Pending operations have
// RespondTime == simtime.Infinity.
type OpRecord struct {
	Proc        ProcID
	SeqID       int64
	Op          string
	Arg, Ret    any
	InvokeTime  simtime.Time
	RespondTime simtime.Time
}

// Pending reports whether the operation has not yet responded.
func (o OpRecord) Pending() bool { return o.RespondTime == simtime.Infinity }

// Latency returns the elapsed time between invocation and response.
func (o OpRecord) Latency() simtime.Duration {
	return o.RespondTime.Sub(o.InvokeTime)
}

// MsgRecord is a message send matched with its receipt. Unreceived
// messages (possible only in chopped run fragments) have
// RecvTime == simtime.Infinity. Dropped messages were lost to a fault:
// either in transit (RecvTime == simtime.Infinity, ordinal in
// Trace.Drops) or at a crashed recipient (RecvTime keeps the scheduled
// delivery instant, which the recipient's crash precedes).
type MsgRecord struct {
	ID       int64
	From, To ProcID
	SendTime simtime.Time
	RecvTime simtime.Time
	Payload  any
	Dropped  bool
}

// Received reports whether the message was delivered within the run.
func (m MsgRecord) Received() bool { return m.RecvTime != simtime.Infinity }

// Delay returns the message delay (meaningful only if received).
func (m MsgRecord) Delay() simtime.Duration { return m.RecvTime.Sub(m.SendTime) }

// Trace is the full record of a run: the model parameters, clock offsets,
// per-process timed views (step times), matched messages, and operation
// instances. It contains everything the shifting machinery of Section 2.4
// and the linearizability checker need.
//
// A Trace is immutable once its run finishes: every method is read-only
// (the sorting accessors sort copies), so a completed trace may be read
// from any number of goroutines concurrently — the parallel experiment
// runner in internal/harness relies on this. Mutating transformations
// (shift, chop) operate on Clone()s. The one exception is a trace its
// engine was told to Recycle: the engine's next Reset rewrites it.
type Trace struct {
	Params  simtime.Params
	Offsets []simtime.Duration
	Steps   []StepRecord
	Msgs    []MsgRecord
	Ops     []OpRecord

	// Crashes and Drops record the fault plan the run executed under
	// (see FaultPlan). Both nil on fault-free runs.
	Crashes []simtime.Time
	Drops   []int64
}

// Clone returns a deep copy of the trace (payload values are shared).
func (t *Trace) Clone() *Trace {
	out := &Trace{Params: t.Params}
	out.Offsets = append([]simtime.Duration(nil), t.Offsets...)
	out.Steps = append([]StepRecord(nil), t.Steps...)
	out.Msgs = append([]MsgRecord(nil), t.Msgs...)
	out.Ops = append([]OpRecord(nil), t.Ops...)
	out.Crashes = append([]simtime.Time(nil), t.Crashes...)
	out.Drops = append([]int64(nil), t.Drops...)
	return out
}

// CrashTimeOf returns the crash time of process p (simtime.Infinity if
// p never crashes or the run had no fault plan).
func (t *Trace) CrashTimeOf(p ProcID) simtime.Time {
	if int(p) >= len(t.Crashes) {
		return simtime.Infinity
	}
	return t.Crashes[p]
}

// LastTime returns the latest real time of any step in the trace
// (last-time of the run), or simtime.NegInfinity for an empty trace.
func (t *Trace) LastTime() simtime.Time {
	last := simtime.NegInfinity
	for _, s := range t.Steps {
		if s.Time > last {
			last = s.Time
		}
	}
	return last
}

// LastTimeOf returns the latest step time of one process.
func (t *Trace) LastTimeOf(p ProcID) simtime.Time {
	last := simtime.NegInfinity
	for _, s := range t.Steps {
		if s.Proc == p && s.Time > last {
			last = s.Time
		}
	}
	return last
}

// CompletedOps returns the completed operation instances sorted by
// invocation time (ties by process id).
func (t *Trace) CompletedOps() []OpRecord {
	var out []OpRecord
	for _, op := range t.Ops {
		if !op.Pending() {
			out = append(out, op)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].InvokeTime != out[j].InvokeTime {
			return out[i].InvokeTime < out[j].InvokeTime
		}
		return out[i].Proc < out[j].Proc
	})
	return out
}

// OpsOf returns all operations invoked at one process, in invocation
// order.
func (t *Trace) OpsOf(p ProcID) []OpRecord {
	var out []OpRecord
	for _, op := range t.Ops {
		if op.Proc == p {
			out = append(out, op)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].InvokeTime < out[j].InvokeTime })
	return out
}

// MaxLatency returns the maximum latency among completed instances of the
// named operation, and whether any were found.
func (t *Trace) MaxLatency(op string) (simtime.Duration, bool) {
	var max simtime.Duration
	found := false
	for _, o := range t.Ops {
		if o.Op != op || o.Pending() {
			continue
		}
		if !found || o.Latency() > max {
			max = o.Latency()
		}
		found = true
	}
	return max, found
}

// CheckAdmissible verifies the admissibility conditions of Section 2.3
// against the recorded parameters: pairwise clock skew at most ε, all
// received delays within [d-u, d], and every unreceived message's
// recipient stopping before sendTime + d. In the crash-prone extension a
// Dropped message is admissible exactly when the fault plan accounts for
// it: a transit loss must name its send ordinal in Drops, and a
// crash-side loss must land at a recipient already crashed at its
// scheduled delivery instant.
func (t *Trace) CheckAdmissible() error {
	if err := ValidateOffsets(t.Offsets, t.Params.Epsilon); err != nil {
		return err
	}
	if len(t.Crashes) != 0 && len(t.Crashes) != t.Params.N {
		return fmt.Errorf("sim: %d crash times for N=%d", len(t.Crashes), t.Params.N)
	}
	dropSet := make(map[int64]bool, len(t.Drops))
	for _, ix := range t.Drops {
		dropSet[ix] = true
	}
	for _, m := range t.Msgs {
		if m.Dropped {
			if !m.Received() {
				if !dropSet[m.ID-1] {
					return fmt.Errorf("sim: message %d (p%d→p%d) lost in transit but ordinal %d not in the drop plan",
						m.ID, m.From, m.To, m.ID-1)
				}
				continue
			}
			if crash := t.CrashTimeOf(m.To); crash > m.RecvTime {
				return fmt.Errorf("sim: message %d (p%d→p%d) dropped at delivery %v but p%d not crashed until %v",
					m.ID, m.From, m.To, m.RecvTime, m.To, crash)
			}
			// Fall through: a crash-side drop still carries a real
			// network delay, checked below.
		}
		if m.Received() {
			d := m.Delay()
			if d < t.Params.MinDelay() || d > t.Params.D {
				return fmt.Errorf("sim: message %d (p%d→p%d) delay %v outside [%v, %v]",
					m.ID, m.From, m.To, d, t.Params.MinDelay(), t.Params.D)
			}
			continue
		}
		lastRecipient := t.LastTimeOf(m.To)
		if lastRecipient >= m.SendTime.Add(t.Params.D) {
			return fmt.Errorf("sim: message %d (p%d→p%d) sent at %v unreceived but recipient alive at %v ≥ %v",
				m.ID, m.From, m.To, m.SendTime, lastRecipient, m.SendTime.Add(t.Params.D))
		}
	}
	return nil
}

// CheckComplete verifies the completeness conditions of Section 2.2: every
// invocation has a response (all ops completed).
func (t *Trace) CheckComplete() error {
	for _, op := range t.Ops {
		if op.Pending() {
			return fmt.Errorf("sim: operation %s (seq %d) at p%d invoked at %v never responded",
				op.Op, op.SeqID, op.Proc, op.InvokeTime)
		}
	}
	return nil
}

// CheckCompleteExceptCrashed is the crash-prone completeness condition:
// every invocation at a process that never crashes has a response. An
// operation pending at a crashed process is legitimate — the
// linearizability checker already treats pending operations as
// may-or-may-not have taken effect.
func (t *Trace) CheckCompleteExceptCrashed() error {
	for _, op := range t.Ops {
		if op.Pending() && t.CrashTimeOf(op.Proc) == simtime.Infinity {
			return fmt.Errorf("sim: operation %s (seq %d) at p%d invoked at %v never responded (process never crashed)",
				op.Op, op.SeqID, op.Proc, op.InvokeTime)
		}
	}
	return nil
}
