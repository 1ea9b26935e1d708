// Package shift mechanizes the proof machinery of Sections 2.4 and 4.1 of
// the paper: the classic shifting transformation (Theorem 1), validation
// of pair-wise uniform delay matrices, shortest-path
// computation over delays, the chop operation that repairs a single
// invalid delay by truncating timed views, and appending run fragments.
//
// All transformations operate on recorded sim.Trace values: shifting a
// run changes only the real times at which steps occur (each process's
// view — and therefore every response value — is unchanged), exactly as
// in the paper.
package shift

import (
	"fmt"

	"lintime/internal/sim"
	"lintime/internal/simtime"
)

// Shift returns shift(R, x⃗): process p_i's steps (and its operation and
// message endpoints) are moved x[i] later. Per Theorem 1, the clock offset
// of p_i becomes c_i - x_i and a message p_i→p_j with delay δ gets delay
// δ - x_i + x_j.
func Shift(tr *sim.Trace, x []simtime.Duration) (*sim.Trace, error) {
	if len(x) != len(tr.Offsets) {
		return nil, fmt.Errorf("shift: %d shift amounts for %d processes", len(x), len(tr.Offsets))
	}
	out := tr.Clone()
	for i := range out.Offsets {
		out.Offsets[i] -= x[i] // Theorem 1(1)
	}
	for i := range out.Steps {
		out.Steps[i].Time = out.Steps[i].Time.Add(x[out.Steps[i].Proc])
	}
	for i := range out.Ops {
		p := out.Ops[i].Proc
		out.Ops[i].InvokeTime = out.Ops[i].InvokeTime.Add(x[p])
		if !out.Ops[i].Pending() {
			out.Ops[i].RespondTime = out.Ops[i].RespondTime.Add(x[p])
		}
	}
	for i := range out.Msgs {
		out.Msgs[i].SendTime = out.Msgs[i].SendTime.Add(x[out.Msgs[i].From])
		if out.Msgs[i].Received() {
			out.Msgs[i].RecvTime = out.Msgs[i].RecvTime.Add(x[out.Msgs[i].To]) // Theorem 1(2)
		}
	}
	return out, nil
}

// Matrix returns the delay matrix of shift(R, x⃗) given R's matrix m:
// δ_ij - x_i + x_j, Theorem 1(2) applied to every ordered pair.
func Matrix(m [][]simtime.Duration, x []simtime.Duration) [][]simtime.Duration {
	out := make([][]simtime.Duration, len(m))
	for i := range m {
		out[i] = make([]simtime.Duration, len(m[i]))
		for j := range m[i] {
			if i != j {
				out[i][j] = m[i][j] - x[i] + x[j]
			}
		}
	}
	return out
}

// InvalidPairs returns the ordered process pairs whose matrix delay falls
// outside [d-u, d].
func InvalidPairs(m [][]simtime.Duration, p simtime.Params) [][2]sim.ProcID {
	var out [][2]sim.ProcID
	for i := range m {
		for j := range m[i] {
			if i == j {
				continue
			}
			if m[i][j] < p.MinDelay() || m[i][j] > p.D {
				out = append(out, [2]sim.ProcID{sim.ProcID(i), sim.ProcID(j)})
			}
		}
	}
	return out
}

// ShortestPaths computes all-pairs shortest path lengths over the delay
// matrix (Floyd–Warshall). Delays must be nonnegative.
func ShortestPaths(m [][]simtime.Duration) [][]simtime.Duration {
	n := len(m)
	sp := make([][]simtime.Duration, n)
	for i := range sp {
		sp[i] = make([]simtime.Duration, n)
		copy(sp[i], m[i])
		sp[i][i] = 0
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if sp[i][k]+sp[k][j] < sp[i][j] {
					sp[i][j] = sp[i][k] + sp[k][j]
				}
			}
		}
	}
	return sp
}

// Chop implements the chop(R, δ) operation of Section 4.1 on a run
// fragment with pair-wise uniform delays m of which exactly one — from s
// to r — is invalid. Each process's timed view is truncated: p_r just
// before t* = t_m + min(m[s][r], δ) where t_m is the real time of the
// first message from s to r, and every other p_i just before t* + the
// shortest-path distance from r to i. Truncated operations become
// pending; truncated message receipts become unreceived; sends after the
// sender's cutoff are dropped entirely.
func Chop(tr *sim.Trace, m [][]simtime.Duration, p simtime.Params, delta simtime.Duration) (*sim.Trace, error) {
	bad := InvalidPairs(m, p)
	if len(bad) != 1 {
		return nil, fmt.Errorf("shift: chop requires exactly one invalid delay, found %d", len(bad))
	}
	if delta < p.MinDelay() || delta > p.D {
		return nil, fmt.Errorf("shift: chop parameter δ=%v outside [%v, %v]", delta, p.MinDelay(), p.D)
	}
	s, r := bad[0][0], bad[0][1]
	tm := simtime.Infinity
	for _, msg := range tr.Msgs {
		if msg.From == s && msg.To == r && msg.SendTime < tm {
			tm = msg.SendTime
		}
	}
	if tm == simtime.Infinity {
		return nil, fmt.Errorf("shift: no message from p%d to p%d to chop before", s, r)
	}
	tStar := tm.Add(simtime.Min(m[s][r], delta))
	sp := ShortestPaths(m)
	n := len(tr.Offsets)
	cutoff := make([]simtime.Time, n)
	for i := 0; i < n; i++ {
		if sim.ProcID(i) == r {
			cutoff[i] = tStar
		} else {
			cutoff[i] = tStar.Add(sp[r][i])
		}
	}
	return Truncate(tr, cutoff), nil
}

// Truncate cuts each process's timed view just before its cutoff time,
// producing a run fragment.
func Truncate(tr *sim.Trace, cutoff []simtime.Time) *sim.Trace {
	out := &sim.Trace{Params: tr.Params}
	out.Offsets = append([]simtime.Duration(nil), tr.Offsets...)
	for _, st := range tr.Steps {
		if st.Time < cutoff[st.Proc] {
			out.Steps = append(out.Steps, st)
		}
	}
	for _, op := range tr.Ops {
		if op.InvokeTime >= cutoff[op.Proc] {
			continue
		}
		if !op.Pending() && op.RespondTime >= cutoff[op.Proc] {
			op.RespondTime = simtime.Infinity
		}
		out.Ops = append(out.Ops, op)
	}
	for _, msg := range tr.Msgs {
		if msg.SendTime >= cutoff[msg.From] {
			continue
		}
		if msg.Received() && msg.RecvTime >= cutoff[msg.To] {
			msg.RecvTime = simtime.Infinity
		}
		out.Msgs = append(out.Msgs, msg)
	}
	return out
}

// CheckFragment verifies the run-fragment property: every received
// message was sent within the fragment (Lemma 2's first claim is that
// chop preserves this).
func CheckFragment(tr *sim.Trace) error {
	for _, msg := range tr.Msgs {
		if msg.Received() && msg.SendTime > msg.RecvTime {
			return fmt.Errorf("shift: message %d received at %v before sent at %v",
				msg.ID, msg.RecvTime, msg.SendTime)
		}
	}
	return nil
}

// Append appends fragment f to complete run prefix r (Section 4.1): the
// two must have the same number of processes and clock offsets, and every
// step of f must come strictly after every step of r. The state-agreement
// condition (4) is discharged by History Oblivion, which our replicas
// satisfy after quiescence. Operation, message and step records are
// merged.
func Append(r, f *sim.Trace) (*sim.Trace, error) {
	if err := r.CheckComplete(); err != nil {
		return nil, fmt.Errorf("shift: append prefix not complete: %w", err)
	}
	if len(r.Offsets) != len(f.Offsets) {
		return nil, fmt.Errorf("shift: process count mismatch %d vs %d", len(r.Offsets), len(f.Offsets))
	}
	for i := range r.Offsets {
		if r.Offsets[i] != f.Offsets[i] {
			return nil, fmt.Errorf("shift: clock offset mismatch at p%d: %v vs %v", i, r.Offsets[i], f.Offsets[i])
		}
	}
	firstF := simtime.Infinity
	for _, st := range f.Steps {
		if st.Time < firstF {
			firstF = st.Time
		}
	}
	if last := r.LastTime(); firstF <= last {
		return nil, fmt.Errorf("shift: fragment starts at %v, prefix ends at %v", firstF, last)
	}
	out := r.Clone()
	out.Steps = append(out.Steps, f.Steps...)
	out.Msgs = append(out.Msgs, f.Msgs...)
	out.Ops = append(out.Ops, f.Ops...)
	return out, nil
}

// Suffix returns the part of tr strictly after time t: operations invoked
// after t, messages sent after t, steps after t. Used to extract the
// fragment S following a prefix R_A(ρ, C, D) in the Theorem 4 and 5
// constructions.
func Suffix(tr *sim.Trace, t simtime.Time) *sim.Trace {
	out := &sim.Trace{Params: tr.Params}
	out.Offsets = append([]simtime.Duration(nil), tr.Offsets...)
	for _, st := range tr.Steps {
		if st.Time > t {
			out.Steps = append(out.Steps, st)
		}
	}
	for _, op := range tr.Ops {
		if op.InvokeTime > t {
			out.Ops = append(out.Ops, op)
		}
	}
	for _, msg := range tr.Msgs {
		if msg.SendTime > t {
			out.Msgs = append(out.Msgs, msg)
		}
	}
	return out
}
