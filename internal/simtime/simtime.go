// Package simtime provides the integer virtual-time base used throughout
// the simulator and the bound formulas.
//
// The paper's model measures everything in an abstract real-time unit; all
// interesting quantities are rational combinations of the message-delay
// bound d, the delay uncertainty u, and the clock skew ε (for example u/4,
// (1-1/k)·u, d/3). To keep every such quantity exact we use 64-bit integer
// ticks and choose experiment parameters divisible by Quantum, which is
// divisible by 2..9 and by 2k for all process counts used in experiments.
package simtime

import "fmt"

// Time is an absolute instant in virtual ticks. Real times in runs may be
// negative after shifting, so Time is signed.
type Time int64

// Duration is a span of virtual ticks.
type Duration int64

// Infinity is a sentinel Time later than any event in a run.
const Infinity Time = 1<<62 - 1

// NegInfinity is a sentinel Time earlier than any event in a run.
const NegInfinity Time = -(1<<62 - 1)

// InfDuration is a sentinel Duration longer than any measurable span,
// e.g. the latency of a pending operation whose response time is
// Infinity.
const InfDuration Duration = 1<<62 - 1

// NegInfDuration is the negative sentinel counterpart of InfDuration.
const NegInfDuration Duration = -(1<<62 - 1)

// Quantum is the recommended divisor for experiment parameters. It is
// 2^5·3^2·5·7 = 10080, divisible by every k in 2..10 and by 4 and 3, so
// u/4, d/3 and (1-1/k)·u are all exact for the experiment configurations.
const Quantum Duration = 10080

// Add returns t+dd, saturating at the sentinels: adding any duration to
// ±Infinity leaves it unchanged, and a result that would reach or pass a
// sentinel clamps to it instead of wrapping.
func (t Time) Add(dd Duration) Time {
	if t >= Infinity {
		return Infinity
	}
	if t <= NegInfinity {
		return NegInfinity
	}
	if dd >= InfDuration {
		return Infinity
	}
	if dd <= NegInfDuration {
		return NegInfinity
	}
	sum := int64(t) + int64(dd)
	if dd >= 0 {
		if sum < int64(t) || sum >= int64(Infinity) {
			return Infinity
		}
	} else if sum > int64(t) || sum <= int64(NegInfinity) {
		return NegInfinity
	}
	return Time(sum)
}

// Sub returns the duration from s to t, saturating at the sentinels:
// the distance from a finite time to ±Infinity is ±InfDuration, two
// like-signed infinities are 0 apart, and a finite difference that would
// reach a sentinel clamps to it.
func (t Time) Sub(s Time) Duration {
	switch {
	case t >= Infinity:
		if s >= Infinity {
			return 0
		}
		return InfDuration
	case t <= NegInfinity:
		if s <= NegInfinity {
			return 0
		}
		return NegInfDuration
	case s >= Infinity:
		return NegInfDuration
	case s <= NegInfinity:
		return InfDuration
	}
	// Both finite: |t|, |s| < 2^62, so the int64 difference cannot wrap,
	// but it can exceed the sentinel magnitude; clamp.
	diff := int64(t) - int64(s)
	if diff >= int64(InfDuration) {
		return InfDuration
	}
	if diff <= int64(NegInfDuration) {
		return NegInfDuration
	}
	return Duration(diff)
}

// String renders the time in ticks.
func (t Time) String() string {
	switch t {
	case Infinity:
		return "+inf"
	case NegInfinity:
		return "-inf"
	}
	return fmt.Sprintf("%d", int64(t))
}

// String renders the duration in ticks.
func (d Duration) String() string {
	switch d {
	case InfDuration:
		return "+inf"
	case NegInfDuration:
		return "-inf"
	}
	return fmt.Sprintf("%d", int64(d))
}

// Min returns the smaller of two durations.
func Min(a, b Duration) Duration {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of two durations.
func Max(a, b Duration) Duration {
	if a > b {
		return a
	}
	return b
}

// MinTime returns the earlier of two times.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// MaxTime returns the later of two times.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Abs returns the absolute value of d.
func (d Duration) Abs() Duration {
	if d < 0 {
		return -d
	}
	return d
}

// Params bundles the timing parameters of the partially synchronous model:
// message delays lie in [D-U, D], clock skew is at most Epsilon, and X is
// Algorithm 1's accessor/mutator tradeoff parameter.
type Params struct {
	N       int      // number of processes
	D       Duration // maximum message delay (d)
	U       Duration // delay uncertainty (u); delays lie in [D-U, D]
	Epsilon Duration // maximum clock skew (ε)
	X       Duration // tradeoff parameter, in [0, D-Epsilon]
}

// Validate checks the structural constraints the paper places on the model
// parameters.
func (p Params) Validate() error {
	if p.N < 1 {
		return fmt.Errorf("simtime: need at least one process, got %d", p.N)
	}
	if p.D <= 0 {
		return fmt.Errorf("simtime: d must be positive, got %v", p.D)
	}
	if p.U < 0 || p.U > p.D {
		return fmt.Errorf("simtime: u must be in [0, d]=[0, %v], got %v", p.D, p.U)
	}
	if p.Epsilon < 0 {
		return fmt.Errorf("simtime: ε must be nonnegative, got %v", p.Epsilon)
	}
	maxX := p.D - p.Epsilon
	if maxX < 0 {
		// ε > d arises only for not-yet-synchronized systems (see
		// internal/clocksync); Algorithm 1's tradeoff parameter then has
		// no room.
		maxX = 0
	}
	if p.X < 0 || p.X > maxX {
		return fmt.Errorf("simtime: X must be in [0, max(0, d-ε)]=[0, %v], got %v", maxX, p.X)
	}
	return nil
}

// MinDelay returns the lower end of the admissible delay interval, d-u.
func (p Params) MinDelay() Duration { return p.D - p.U }

// OptimalEpsilon returns the best achievable clock synchronization skew
// for n processes with delay uncertainty u, namely (1-1/n)·u [Lundelius &
// Lynch 1984]. The result is exact when u is divisible by n; for u < n the
// integer u/n is 0 and the result is u (no skew below one tick is
// representable).
func OptimalEpsilon(n int, u Duration) Duration {
	if n <= 0 {
		return 0
	}
	return u - u/Duration(n)
}

// DefaultParams returns the canonical experiment configuration used by the
// table benchmarks: n processes, d = 2·Quantum, u = d/2, optimal ε, and a
// balanced X = ε (so accessors take d-ε and mutators take 2ε).
func DefaultParams(n int) Params {
	d := 2 * Quantum
	u := d / 2
	eps := OptimalEpsilon(n, u)
	return Params{N: n, D: d, U: u, Epsilon: eps, X: eps}
}

// Frac returns (num/den)·d, rounding toward zero. For exact experiment
// parameters choose d divisible by den.
func Frac(d Duration, num, den int64) Duration {
	return Duration(int64(d) * num / den)
}
