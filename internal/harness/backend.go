package harness

import (
	"fmt"
	"io"
	"strings"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/core"
	"lintime/internal/folklore"
	"lintime/internal/obs"
	"lintime/internal/quorum"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// Backend names, in table order.
const (
	AlgCore       = "core"        // Algorithm 1 with corrected timers
	AlgCorePaper  = "core-paper"  // ablation: the paper's literal timers
	AlgCoreAllOOP = "core-alloop" // ablation: classification disabled
	AlgCentral    = "central"     // folklore centralized
	AlgSequencer  = "sequencer"   // folklore total-order broadcast
	AlgQuorum     = "quorum"      // ABD crash-tolerant majority-quorum register
)

// Mutant is one seeded bug: a backend with a single safeguard removed.
// The kill matrices assert that schedule exploration rediscovers each and
// never flags the control. (A mutant whose weakened wait the parameters
// do not exercise — a dropped +ε at ε = 0 — is genuinely correct there.)
type Mutant struct {
	Name, Desc   string
	timers       func(simtime.Params) core.Timers // core: the timers it runs with
	literalDrain bool                             // core: the paper's literal accessor drain
	weaken       func(*quorum.Config)             // quorum: the knob it loosens
}

// resolver checks (p, dt) against a protocol once and returns a
// constructor of fresh replica sets; the zero Mutant is the control.
// Algorithm 1 rows build with the given timers; the others ignore them.
type resolver func(simtime.Params, spec.DataType, Mutant, core.Timers) (func(states spec.DataType) []sim.Node, error)

// Backend is one row of the protocol table: everything the repo knows
// about a replicated protocol apart from its state machine.
type Backend struct {
	Name          string
	Desc          string // the correct protocol; the kill matrices' control row appends " (control)"
	DefaultType   string // the data type served when none is asked for
	Faults        bool   // tolerates crashes and message loss, so the crash/drop schedule axes apply
	ClockFree     bool   // reads no local clock, so clock offsets are inert
	NoStrongSweep bool   // prefix-violating futures by design: `verify` sweeps for them only when asked
	// Converges: replicas end in one state, readable as a fingerprint (not
	// central's clients; not quorum's, where an update may legitimately
	// reach only a partial quorum).
	Converges bool
	// Bound is the worst-case latency of an operation of the class, in
	// ticks; nil means not servable (no formula to judge latencies against).
	Bound   func(simtime.Params, classify.Class) simtime.Duration
	Mutants []Mutant                                // the seeded bugs, in kill-matrix row order
	Starts  func(simtime.Params) []simtime.Duration // first-op instants besides 0 that bmc's plan axis enumerates
	timers  func(simtime.Params) core.Timers        // Algorithm 1 rows: the default, declared as a mutant's
	resolve resolver
}

var backends = []Backend{
	{Name: AlgCore, Desc: "corrected Algorithm 1", DefaultType: "queue", Converges: true, Bound: CoreBound,
		Mutants: []Mutant{
			{Name: "aop-no-eps", Desc: "pure-accessor wait d-X without the +ε correction (paper's literal bound; EXPERIMENTS.md Finding 1)",
				timers: core.PaperTimers},
			{Name: "literal-drain", Desc: "paper's d-X wait plus the literal drain that permanently commits the accessor's view (replicas diverge)",
				timers: core.PaperTimers, literalDrain: true},
			{Name: "exec-no-eps", Desc: "execute stabilization wait u instead of u+ε (skewed concurrent mutators commit in different orders)",
				timers: func(p simtime.Params) core.Timers { t := core.DefaultTimers(p); t.ExecuteWait = p.U; return t }},
			{Name: "addself-zero", Desc: "d-u self-delay removed (a mixed op executes before a completed remote mutator arrives)",
				timers: func(p simtime.Params) core.Timers { t := core.DefaultTimers(p); t.AddSelf = 0; return t }},
			{Name: "mop-zero", Desc: "pure mutators respond immediately instead of after X+ε (a later op on a lagging clock gets a smaller timestamp)",
				timers: func(p simtime.Params) core.Timers { t := core.DefaultTimers(p); t.MOPRespond = 0; return t }},
		},
		Starts: windowStart, timers: core.DefaultTimers, resolve: resolveCore(ClassesFor)},
	{Name: AlgCorePaper, Desc: "Algorithm 1 with the paper's literal timers", DefaultType: "queue", Converges: true,
		Starts: windowStart, timers: core.PaperTimers, resolve: resolveCore(ClassesFor)},
	{Name: AlgCoreAllOOP, Desc: "Algorithm 1 with every operation classed mixed", DefaultType: "queue", Converges: true,
		Starts: windowStart, timers: core.DefaultTimers, resolve: resolveCore(func(spec.DataType) map[string]classify.Class { return nil })},
	{Name: AlgCentral, Desc: "folklore centralized server", DefaultType: "queue", ClockFree: true,
		Starts: beforeArrival, resolve: resolveFolklore(folklore.NewCentralNodes)},
	{Name: AlgSequencer, Desc: "folklore sequencer total-order broadcast", DefaultType: "queue", ClockFree: true,
		Starts: beforeArrival, resolve: resolveFolklore(folklore.NewSequencerNodes)},
	{Name: AlgQuorum, Desc: "correct ABD quorum register", DefaultType: "register",
		Faults: true, ClockFree: true, NoStrongSweep: true, Bound: QuorumBound, Starts: quorumStarts,
		Mutants: []Mutant{
			{Name: "crash-threshold", Desc: "every phase waits for 1 ack: tolerates crash counts over the minority threshold, at the cost of quorum intersection",
				weaken: func(c *quorum.Config) { c.ReadQuorum, c.WriteQuorum = 1, 1 }},
			{Name: "skip-writeback", Desc: "reads respond after the query phase without writing back",
				weaken: func(c *quorum.Config) { c.SkipWriteBack = true }},
			{Name: "stale-tiebreak", Desc: "tags compared by timestamp only; ties keep the incumbent",
				weaken: func(c *quorum.Config) { c.TSOnlyTieBreak = true }},
			{Name: "sub-majority-read", Desc: "read query phase waits for 1 ack instead of a majority",
				weaken: func(c *quorum.Config) { c.ReadQuorum = 1 }},
		},
		resolve: resolveQuorum},
}

// CoreBound is Algorithm 1's worst-case latency per operation class under
// the corrected timers: |AOP| = d−X+ε, |MOP| = X+ε, |OOP| = d+ε.
func CoreBound(p simtime.Params, class classify.Class) simtime.Duration {
	switch class {
	case classify.PureAccessor:
		return p.D - p.X + p.Epsilon
	case classify.PureMutator:
		return p.X + p.Epsilon
	default:
		return p.D + p.Epsilon
	}
}

// QuorumBound is the ABD register's worst-case latency: a query phase and
// a propagate phase, each one majority round trip bounded by 2d, whatever
// the class. (The protocol reads no clocks, so ε and X never appear.)
func QuorumBound(p simtime.Params, _ classify.Class) simtime.Duration { return 4 * p.D }

// windowStart is the midpoint of Algorithm 1's accessor timestamp window
// [max(0, X-ε), X): an op invoked there (on a fast clock) backdates into
// the thick of concurrent time-zero mutators.
func windowStart(p simtime.Params) []simtime.Duration {
	return []simtime.Duration{simtime.Max(0, p.X-p.Epsilon) + simtime.Min(p.X, p.Epsilon)/2}
}

// beforeArrival is (d-u)/2: a clock-free protocol's op invoked there runs
// before any time-zero message can have arrived.
func beforeArrival(p simtime.Params) []simtime.Duration {
	return []simtime.Duration{p.MinDelay() / 2}
}

// quorumStarts adds 2(d-u)+d to beforeArrival: just past the latest
// arrival of a minimum-delay write's propagate phase. (d-u)/2 sits inside
// the window where a bogusly fast write has responded but no message can
// have arrived.
func quorumStarts(p simtime.Params) []simtime.Duration {
	return append(beforeArrival(p), 2*p.MinDelay()+p.D)
}

// resolveCore builds Algorithm 1 replicas over a class map.
func resolveCore(classesOf func(spec.DataType) map[string]classify.Class) resolver {
	return func(p simtime.Params, dt spec.DataType, m Mutant, timers core.Timers) (func(spec.DataType) []sim.Node, error) {
		classes := classesOf(dt)
		return func(states spec.DataType) []sim.Node {
			nodes := core.NewReplicas(p.N, states, classes, timers)
			for _, n := range nodes {
				n.(*core.Replica).LiteralAOPDrain = m.literalDrain
			}
			return nodes
		}, nil
	}
}

func resolveFolklore(build func(int, spec.DataType) []sim.Node) resolver {
	return func(p simtime.Params, _ spec.DataType, _ Mutant, _ core.Timers) (func(spec.DataType) []sim.Node, error) {
		return func(states spec.DataType) []sim.Node { return build(p.N, states) }, nil
	}
}

// resolveQuorum builds ABD replicas; the protocol serves exactly the
// register type, whose initial value is what reading its initial state
// returns.
func resolveQuorum(p simtime.Params, dt spec.DataType, m Mutant, _ core.Timers) (func(spec.DataType) []sim.Node, error) {
	if dt.Name() != adt.NewRegister(0).Name() {
		return nil, fmt.Errorf("harness: the quorum backend serves the register type, not %q", dt.Name())
	}
	v, _ := dt.Initial().Apply(quorum.OpRead, nil)
	initial, ok := v.(int)
	if !ok {
		return nil, fmt.Errorf("harness: register initial read returned %T, want int", v)
	}
	cfg := quorumConfig(p, m)
	return func(spec.DataType) []sim.Node { return quorum.NewReplicas(p.N, initial, cfg) }, nil
}

func quorumConfig(p simtime.Params, m Mutant) quorum.Config {
	cfg := quorum.DefaultConfig(p)
	if m.weaken != nil {
		m.weaken(&cfg)
	}
	return cfg
}

// Lookup resolves a backend by name; the empty name selects the first
// entry, Algorithm 1.
func Lookup(name string) (*Backend, error) {
	for i := range backends {
		if name == "" || name == backends[i].Name {
			return &backends[i], nil
		}
	}
	return nil, fmt.Errorf("harness: unknown backend %q (have %s)", name, strings.Join(Algorithms(), ", "))
}

// Algorithms lists the backend names in table order.
func Algorithms() []string { return backendNames(func(*Backend) bool { return true }) }

func backendNames(keep func(*Backend) bool) []string {
	var names []string
	for i := range backends {
		if keep(&backends[i]) {
			names = append(names, backends[i].Name)
		}
	}
	return names
}

// MutantNames lists the backend's seeded bugs in declared order.
func (b *Backend) MutantNames() []string {
	names := make([]string, len(b.Mutants))
	for i, m := range b.Mutants {
		names[i] = m.Name
	}
	return names
}

// MatrixRows returns the backend's kill-matrix rows: the control (empty
// Name) first, then every seeded mutant. A backend without mutants has no
// matrix, and says which backends do.
func (b *Backend) MatrixRows() ([]Mutant, error) {
	if len(b.Mutants) == 0 {
		return nil, fmt.Errorf("harness: backend %s has no seeded mutants (%s have)", b.Name,
			strings.Join(backendNames(func(o *Backend) bool { return len(o.Mutants) > 0 }), ", "))
	}
	return append([]Mutant{{Desc: b.Desc + " (control)"}}, b.Mutants...), nil
}

// KillEntry is one row of a kill matrix: one search's verdict on one
// MatrixRows row. W is what the search attaches to a kill (the fuzzer's
// first violation; struct{} for the exhaustive sweep).
type KillEntry[W any] struct {
	Mutant string `json:"mutant"` // "correct" for the control row
	Desc   string `json:"desc"`
	Killed bool   `json:"killed"`
	Kind   string `json:"kind,omitempty"` // violation kind that killed it
	Runs   int    `json:"runs"`           // runs before the kill, or all the search spent
	// Space names the certificate space when the verdict came from a
	// targeted context rather than the search's shared space.
	Space   string `json:"space,omitempty"`
	Witness W      `json:"-"`
}

// KillMatrix runs hunt on each MatrixRows row of the algorithm's backend,
// in order, and returns the rows. hunt supplies the verdict; KillMatrix
// names the row ("correct" for the control), copies its description and
// counts each kill on kills. A hunt error ends the matrix.
func KillMatrix[W any](algorithm string, kills *obs.Counter, hunt func(Mutant) (KillEntry[W], error)) ([]KillEntry[W], error) {
	backend, err := Lookup(algorithm)
	if err != nil {
		return nil, err
	}
	rows, err := backend.MatrixRows()
	if err != nil {
		return nil, err
	}
	entries := make([]KillEntry[W], 0, len(rows))
	for _, m := range rows {
		e, err := hunt(m)
		if err != nil {
			return nil, err
		}
		e.Mutant, e.Desc = m.Name, m.Desc
		if e.Mutant == "" {
			e.Mutant = "correct"
		}
		if e.Killed {
			kills.Inc()
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// KillWording is how one search's matrix names its run column and the
// verdicts of rows it did not kill.
type KillWording struct {
	Runs         string // run column header
	Clean        string // verdict of a surviving control
	Survived     string // verdict of a surviving mutant
	VerdictWidth int
}

// WriteKillMatrix renders a kill matrix as a deterministic text table,
// one row per entry; a row's Space follows its description in brackets.
func WriteKillMatrix[W any](w io.Writer, entries []KillEntry[W], words KillWording) {
	nameW := 14
	for _, e := range entries {
		nameW = max(nameW, len(e.Mutant)+1)
	}
	fmt.Fprintf(w, "%-*s %-*s %-10s %s\n", nameW, "mutant", words.VerdictWidth, "verdict", words.Runs, "description")
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 84))
	for _, e := range entries {
		verdict, desc := words.Survived, e.Desc
		switch {
		case e.Killed:
			verdict = "killed: " + e.Kind
		case e.Mutant == "correct":
			verdict = words.Clean
		}
		if e.Space != "" {
			desc += " [" + e.Space + "]"
		}
		fmt.Fprintf(w, "%-*s %-*s %-10d %s\n", nameW, e.Mutant, words.VerdictWidth, verdict, e.Runs, desc)
	}
}

// mutant resolves one of the backend's own seeded bugs; "" and "none"
// select the correct protocol (the zero Mutant).
func (b *Backend) mutant(name string) (Mutant, error) {
	if name == "" || name == "none" {
		return Mutant{}, nil
	}
	for _, m := range b.Mutants {
		if m.Name == name {
			return m, nil
		}
	}
	if _, err := b.MatrixRows(); err != nil {
		return Mutant{}, err
	}
	return Mutant{}, fmt.Errorf("harness: unknown %s mutant %q (have %s)", b.Name, name, strings.Join(b.MutantNames(), ", "))
}

// Builder validates (p, dt, mutant) once and returns a constructor of
// fresh replica sets, so a campaign of many schedules against one target
// pays the classification, the mutant lookup and the type check once.
// Classification comes from dt; the constructor's argument is the type
// whose states the replicas hold — dt itself, or in the verifier a
// spec.Table's compiled view of it (Table.Compiled), whose transitions
// are computed once per Table. The constructor is safe for concurrent
// use. An Algorithm 1 row runs with timers when non-nil, else with the
// mutant's, else with its own; other rows refuse a timers value.
func (b *Backend) Builder(p simtime.Params, dt spec.DataType, mutant string, timers *core.Timers) (func(states spec.DataType) []sim.Node, error) {
	m, err := b.mutant(mutant)
	if err != nil {
		return nil, err
	}
	var t core.Timers
	switch {
	case b.timers == nil && timers != nil:
		return nil, fmt.Errorf("harness: backend %s runs no Algorithm 1 timers to set", b.Name)
	case timers != nil:
		t = *timers
	case m.timers != nil:
		t = m.timers(p)
	case b.timers != nil:
		t = b.timers(p)
	}
	return b.resolve(p, dt, m, t)
}

// AppendFingerprints appends the built nodes' object states to fps, or
// returns fps unchanged where the protocol has no convergence property to
// check.
func (b *Backend) AppendFingerprints(fps []string, nodes []sim.Node) []string {
	if !b.Converges {
		return fps
	}
	for _, n := range nodes {
		fps = append(fps, n.(interface{ StateFingerprint() string }).StateFingerprint())
	}
	return fps
}
