package simtime

import (
	"testing"
	"testing/quick"
)

func TestTimeAddSub(t *testing.T) {
	tm := Time(100)
	if got := tm.Add(50); got != Time(150) {
		t.Errorf("Add: got %v, want 150", got)
	}
	if got := tm.Add(-200); got != Time(-100) {
		t.Errorf("Add negative: got %v, want -100", got)
	}
	if got := Time(150).Sub(Time(100)); got != Duration(50) {
		t.Errorf("Sub: got %v, want 50", got)
	}
}

func TestSentinelArithmeticSaturates(t *testing.T) {
	addCases := []struct {
		name string
		t    Time
		d    Duration
		want Time
	}{
		{"inf plus positive stays inf", Infinity, 100, Infinity},
		{"inf plus inf-duration stays inf", Infinity, InfDuration, Infinity},
		{"inf plus negative stays inf", Infinity, -100, Infinity},
		{"neg-inf plus positive stays neg-inf", NegInfinity, 100, NegInfinity},
		{"neg-inf plus negative stays neg-inf", NegInfinity, -100, NegInfinity},
		{"finite overflow clamps to inf", Infinity - 1, 100, Infinity},
		{"finite plus inf-duration clamps to inf", 5, InfDuration, Infinity},
		{"finite underflow clamps to neg-inf", NegInfinity + 1, -100, NegInfinity},
		{"finite plus neg-inf-duration clamps", 5, NegInfDuration, NegInfinity},
		{"finite stays exact", 100, 50, 150},
		{"finite negative stays exact", 100, -250, -150},
		{"zero delta is identity", 7, 0, 7},
	}
	for _, c := range addCases {
		if got := c.t.Add(c.d); got != c.want {
			t.Errorf("%s: %v.Add(%v) = %v, want %v", c.name, c.t, c.d, got, c.want)
		}
	}
	subCases := []struct {
		name string
		t, s Time
		want Duration
	}{
		{"pending latency saturates", Infinity, 100, InfDuration},
		{"pending latency from negative invoke", Infinity, -100, InfDuration},
		{"inf minus inf is zero", Infinity, Infinity, 0},
		{"neg-inf minus neg-inf is zero", NegInfinity, NegInfinity, 0},
		{"neg-inf minus finite saturates", NegInfinity, 100, NegInfDuration},
		{"finite minus inf saturates", 100, Infinity, NegInfDuration},
		{"finite minus neg-inf saturates", 100, NegInfinity, InfDuration},
		{"inf minus neg-inf saturates", Infinity, NegInfinity, InfDuration},
		{"neg-inf minus inf saturates", NegInfinity, Infinity, NegInfDuration},
		{"near-sentinel finite difference clamps", Infinity - 1, NegInfinity + 1, InfDuration},
		{"finite difference stays exact", 150, 100, 50},
		{"finite negative difference stays exact", 100, 150, -50},
	}
	for _, c := range subCases {
		if got := c.t.Sub(c.s); got != c.want {
			t.Errorf("%s: %v.Sub(%v) = %v, want %v", c.name, c.t, c.s, got, c.want)
		}
	}
}

func TestSentinelDurationString(t *testing.T) {
	if got := InfDuration.String(); got != "+inf" {
		t.Errorf("InfDuration.String() = %q, want %q", got, "+inf")
	}
	if got := NegInfDuration.String(); got != "-inf" {
		t.Errorf("NegInfDuration.String() = %q, want %q", got, "-inf")
	}
	if got := Duration(42).String(); got != "42" {
		t.Errorf("Duration(42).String() = %q, want %q", got, "42")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{Time(42), "42"},
		{Time(-7), "-7"},
		{Infinity, "+inf"},
		{NegInfinity, "-inf"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Error("Min wrong")
	}
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Error("Max wrong")
	}
	if MinTime(3, 5) != 3 || MaxTime(3, 5) != 5 {
		t.Error("MinTime/MaxTime wrong")
	}
}

func TestDurationAbs(t *testing.T) {
	if Duration(-7).Abs() != 7 {
		t.Error("Abs(-7) != 7")
	}
	if Duration(7).Abs() != 7 {
		t.Error("Abs(7) != 7")
	}
	if Duration(0).Abs() != 0 {
		t.Error("Abs(0) != 0")
	}
}

func TestQuantumDivisibility(t *testing.T) {
	for div := Duration(2); div <= 10; div++ {
		if Quantum%div != 0 {
			t.Errorf("Quantum %d not divisible by %d", Quantum, div)
		}
	}
	// Divisible by 2k for all experiment process counts k up to 8, so the
	// Theorem 3 shift amounts -(k-1)/(2k)·u are exact.
	for k := Duration(2); k <= 8; k++ {
		if Quantum%(2*k) != 0 {
			t.Errorf("Quantum %d not divisible by 2k=%d", Quantum, 2*k)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	valid := Params{N: 3, D: 100, U: 50, Epsilon: 25, X: 30}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	cases := []struct {
		name string
		p    Params
	}{
		{"zero processes", Params{N: 0, D: 100, U: 50, Epsilon: 25}},
		{"zero d", Params{N: 3, D: 0, U: 0, Epsilon: 0}},
		{"negative d", Params{N: 3, D: -5, U: 0, Epsilon: 0}},
		{"u exceeds d", Params{N: 3, D: 100, U: 101, Epsilon: 0}},
		{"negative u", Params{N: 3, D: 100, U: -1, Epsilon: 0}},
		{"negative epsilon", Params{N: 3, D: 100, U: 50, Epsilon: -1}},
		{"X negative", Params{N: 3, D: 100, U: 50, Epsilon: 25, X: -1}},
		{"X exceeds d-eps", Params{N: 3, D: 100, U: 50, Epsilon: 25, X: 76}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s: expected error, got nil", c.name)
		}
	}
}

func TestParamsXBoundary(t *testing.T) {
	// X = 0 and X = d-ε are both allowed.
	for _, x := range []Duration{0, 75} {
		p := Params{N: 3, D: 100, U: 50, Epsilon: 25, X: x}
		if err := p.Validate(); err != nil {
			t.Errorf("X=%v should be valid: %v", x, err)
		}
	}
}

func TestMinDelay(t *testing.T) {
	p := Params{N: 3, D: 100, U: 30, Epsilon: 10}
	if got := p.MinDelay(); got != 70 {
		t.Errorf("MinDelay: got %v, want 70", got)
	}
}

func TestOptimalEpsilon(t *testing.T) {
	cases := []struct {
		n    int
		u    Duration
		want Duration
	}{
		{2, 100, 50},
		{4, 100, 75},
		{5, 100, 80},
		{1, 100, 0},
		{0, 100, 0},
		{10, Quantum, Quantum - Quantum/10},
		// u < n: integer u/n is 0, so the result is u itself — no skew
		// below one tick is representable.
		{2, 1, 1},
	}
	for _, c := range cases {
		if got := OptimalEpsilon(c.n, c.u); got != c.want {
			t.Errorf("OptimalEpsilon(%d, %v) = %v, want %v", c.n, c.u, got, c.want)
		}
	}
}

func TestOptimalEpsilonBelowU(t *testing.T) {
	// ε = (1-1/n)u < u for all n ≥ 1, u ≥ n (below n the integer division
	// makes ε = u; TestOptimalEpsilon pins that row).
	f := func(n uint8, u uint16) bool {
		nn := int(n%16) + 1
		uu := Duration(u) + Duration(nn)
		eps := OptimalEpsilon(nn, uu)
		return eps < uu && eps >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams(5)
	if err := p.Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
	if p.N != 5 {
		t.Errorf("N = %d, want 5", p.N)
	}
	if p.D != 2*Quantum {
		t.Errorf("D = %v, want %v", p.D, 2*Quantum)
	}
	if p.U != p.D/2 {
		t.Errorf("U = %v, want D/2 = %v", p.U, p.D/2)
	}
	if p.Epsilon != OptimalEpsilon(5, p.U) {
		t.Errorf("Epsilon = %v, want optimal %v", p.Epsilon, OptimalEpsilon(5, p.U))
	}
	if p.X != p.Epsilon {
		t.Errorf("X = %v, want ε = %v", p.X, p.Epsilon)
	}
}

func TestDefaultParamsExactFractions(t *testing.T) {
	// The fractions used in the lower-bound constructions must be exact for
	// the default configurations.
	for n := 2; n <= 8; n++ {
		p := DefaultParams(n)
		if p.U%4 != 0 {
			t.Errorf("n=%d: u/4 inexact for u=%v", n, p.U)
		}
		if p.D%3 != 0 {
			t.Errorf("n=%d: d/3 inexact for d=%v", n, p.D)
		}
		if p.U%Duration(2*n) != 0 {
			t.Errorf("n=%d: u/(2n) inexact for u=%v", n, p.U)
		}
	}
}

func TestFrac(t *testing.T) {
	if got := Frac(120, 1, 3); got != 40 {
		t.Errorf("Frac(120,1,3) = %v, want 40", got)
	}
	if got := Frac(100, 3, 4); got != 75 {
		t.Errorf("Frac(100,3,4) = %v, want 75", got)
	}
}
