package adversary

import (
	"lintime/internal/simtime"
)

// Shrink reduces a violating schedule to a locally minimal counterexample
// by delta debugging (see shrink), keeping any edit under which the run
// still violates *some* checked property: the violation kind may shift as
// the schedule shrinks, e.g. from non-linearizable to diverged; the final
// kind is returned. The result is deterministic. Returns the shrunk
// schedule, its violation kind, and the number of executions spent (at
// most about 2000). A schedule that does not violate comes back unchanged
// after one run, with kind "".
func Shrink(r *Runner, s Schedule) (Schedule, string, int, error) {
	kind := ""
	cur, runs, err := shrink(r, s, 2000, 1, func(_ Schedule, out *Outcome) (bool, int, error) {
		k := out.Violation()
		if k != "" {
			kind = k
		}
		return k != "", 0, nil
	})
	if err != nil {
		return Schedule{}, "", runs, err
	}
	return cur, kind, runs, nil
}

// shrink is the delta-debugging loop behind Shrink and ShrinkStrong. It
// repeatedly tries simplifying edits — dropping operations down to minOps,
// normalizing delays to the extremes of [d-u, d], zeroing clock offsets
// and invocation gaps, removing crashes and drops, truncating the delay
// vector — and keeps any edit whose replay holds still accepts. Edits are
// applied in a fixed order to a fixpoint, so the result is deterministic.
// holds sees every replay of a candidate and returns whether it keeps the
// candidate plus the executions it spent itself, which count against
// maxRuns; its last accepting call is on the returned schedule. If s
// itself is not accepted, it comes back unchanged. Returns the schedule
// and the executions spent.
func shrink(r *Runner, s Schedule, maxRuns, minOps int, holds func(Schedule, *Outcome) (bool, int, error)) (Schedule, int, error) {
	runs := 0
	// try replays a candidate and asks holds about it. An execution error
	// (which a pure simplification cannot cause) aborts the shrink.
	try := func(c Schedule) (bool, error) {
		runs++
		out, err := r.Run(c)
		if err != nil {
			return false, err
		}
		ok, spent, err := holds(c, out)
		runs += spent
		return ok, err
	}

	cur := s.Clone()
	if ok, err := try(cur); err != nil {
		return Schedule{}, runs, err
	} else if !ok {
		return cur, runs, nil
	}

	p := r.Params
	improved := true
	for improved && runs < maxRuns {
		improved = false

		// Pass 1: drop operations, one at a time, later ops first (probes
		// and trailing noise go before the ops that seed the violation).
		for proc := len(cur.Plans) - 1; proc >= 0 && runs < maxRuns; proc-- {
			for i := len(cur.Plans[proc]) - 1; i >= 0 && runs < maxRuns; i-- {
				if cur.NumOps() <= minOps {
					break
				}
				cand := cur.Clone()
				cand.Plans[proc] = append(cand.Plans[proc][:i:i], cand.Plans[proc][i+1:]...)
				if ok, err := try(cand); err != nil {
					return Schedule{}, runs, err
				} else if ok {
					cur, improved = cand, true
				}
			}
		}

		// Pass 2: normalize every delay to d, then to d-u.
		for i := 0; i < len(cur.Delays) && runs < maxRuns; i++ {
			for _, v := range []simtime.Duration{p.D, p.MinDelay()} {
				if cur.Delays[i] == v {
					break // already the preferred extreme
				}
				cand := cur.Clone()
				cand.Delays[i] = v
				if ok, err := try(cand); err != nil {
					return Schedule{}, runs, err
				} else if ok {
					cur, improved = cand, true
					break
				}
			}
		}

		// Pass 3: zero clock offsets.
		for i := 0; i < len(cur.Offsets) && runs < maxRuns; i++ {
			if cur.Offsets[i] == 0 {
				continue
			}
			cand := cur.Clone()
			cand.Offsets[i] = 0
			if ok, err := try(cand); err != nil {
				return Schedule{}, runs, err
			} else if ok {
				cur, improved = cand, true
			}
		}

		// Pass 4: zero invocation gaps.
		for proc := 0; proc < len(cur.Plans) && runs < maxRuns; proc++ {
			for i := 0; i < len(cur.Plans[proc]) && runs < maxRuns; i++ {
				if cur.Plans[proc][i].Gap == 0 {
					continue
				}
				cand := cur.Clone()
				cand.Plans[proc][i].Gap = 0
				if ok, err := try(cand); err != nil {
					return Schedule{}, runs, err
				} else if ok {
					cur, improved = cand, true
				}
			}
		}

		// Pass 5: remove crashes (set to Infinity), else normalize a
		// surviving crash to time 0.
		for i := 0; i < len(cur.Crashes) && runs < maxRuns; i++ {
			if cur.Crashes[i] == simtime.Infinity {
				continue
			}
			for _, v := range []simtime.Time{simtime.Infinity, 0} {
				if cur.Crashes[i] == v {
					break
				}
				cand := cur.Clone()
				cand.Crashes[i] = v
				if ok, err := try(cand); err != nil {
					return Schedule{}, runs, err
				} else if ok {
					cur, improved = cand, true
					break
				}
			}
		}

		// Pass 6: remove message drops, one at a time.
		for i := len(cur.Drops) - 1; i >= 0 && runs < maxRuns; i-- {
			cand := cur.Clone()
			cand.Drops = append(cand.Drops[:i:i], cand.Drops[i+1:]...)
			if ok, err := try(cand); err != nil {
				return Schedule{}, runs, err
			} else if ok {
				cur, improved = cand, true
			}
		}
	}

	// Final tidy: truncate the delay vector to the messages actually sent
	// (the tail is dead weight; replay is unchanged since out-of-range
	// sends already default to d — dropped sends still consume their
	// ordinal, so the recorded message count remains the right cutoff).
	if out, err := r.Run(cur); err == nil {
		runs++
		if n := len(out.Trace.Msgs); n < len(cur.Delays) {
			cand := cur.Clone()
			cand.Delays = cand.Delays[:n]
			if ok, err := try(cand); err == nil && ok {
				cur = cand
			}
		}
	}
	// A crash axis with no finite entry is semantically absent: drop it
	// without a replay.
	if len(cur.Crashes) > 0 && cur.NumCrashed() == 0 {
		cur.Crashes = nil
	}

	return cur, runs, nil
}
