// Command lintime reproduces the paper's results from the command line:
//
//	lintime tables              reprint Tables 1-5 (closed-form bounds)
//	lintime tables -measured    regenerate the tables with measured columns
//	lintime tables -all         regenerate all five measured tables
//	lintime tables -optimal     measure each op at its per-class optimal X
//	lintime classify            computed operation classifications
//	lintime classify -figure11  the computed class diagram (Figure 11)
//	lintime lowerbound -thm N   run the mechanized lower-bound experiments
//	lintime run                 run a workload and report latency stats
//	lintime run -diagram        render the run as a space-time diagram
//	lintime sweep               the X accessor/mutator tradeoff sweep
//	lintime sync                the clock-synchronization round (§5's ε)
//	lintime fuzz                adversarial schedule fuzzing with shrinking
//	lintime fuzz -mutant all    the seeded-bug kill matrix
//	lintime fuzz -strong        hunt delay forks that break strong linearizability
//	lintime verify              exhaustive bounded model check of a tiny config
//	lintime verify -mutant all  the exhaustive mutant kill matrix
//	lintime trace               causal-trace a run with per-term latency attribution
//
// Common flags: -n (processes), -d, -u (delay bound and uncertainty),
// -eps (clock skew; default optimal (1-1/n)u), -x (tradeoff parameter;
// default ε). Measurement commands take -parallel N (default: all CPUs)
// to fan independent simulator runs across a worker pool; output is
// byte-identical at every parallelism level because per-run RNG seeds are
// derived from the master seed and the run's identity, never from
// scheduling order.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"lintime/internal/adt"
	"lintime/internal/adversary"
	"lintime/internal/bmc"
	"lintime/internal/bounds"
	"lintime/internal/classify"
	"lintime/internal/clocksync"
	"lintime/internal/diagram"
	"lintime/internal/harness"
	"lintime/internal/histio"
	"lintime/internal/lowerbound"
	"lintime/internal/obs"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "tables":
		err = cmdTables(os.Args[2:])
	case "classify":
		err = cmdClassify(os.Args[2:])
	case "lowerbound":
		err = cmdLowerbound(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "sync":
		err = cmdSync(os.Args[2:])
	case "fuzz":
		err = cmdFuzz(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "load":
		err = cmdLoad(os.Args[2:])
	case "stat":
		err = cmdStat(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "lintime: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lintime: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lintime <command> [flags]

commands:
  tables      print the paper's Tables 1-5 evaluated for the model
              parameters; -measured adds worst-case latencies measured in
              the simulator and the centralized baseline; -all regenerates
              every measured table, fanned across -parallel workers
  classify    print the computed algebraic classification of each data
              type's operations and the bounds derived from it
  lowerbound  execute the mechanized Theorem 2/3/4/5 constructions at a
              latency budget (default: one tick below the bound)
  run         run a closed-loop workload and report per-op latencies
  sweep       sweep the X parameter and report the accessor/mutator
              latency tradeoff
  sync        run the Lundelius-Lynch clock synchronization round the
              paper assumes, showing skew before/after vs (1-1/n)u
  fuzz        explore admissible adversarial schedules (delays, clock
              offsets, invocation timings) for linearizability violations,
              shrinking each to a minimal counterexample; -mutant runs a
              seeded bug (or 'all' for the full kill matrix); -strong
              hunts schedules that are linearizable in every future yet
              not strongly linearizable (a single message delay forked to
              its other extreme changes a response)
  verify      exhaustively enumerate EVERY schedule of a quantized
              admissible space (tiny n and op counts; delays at the
              interval endpoints) and model-check linearizability,
              completeness, convergence, and strong linearizability;
              -mutant all re-proves the kill matrix exhaustively; -json
              emits the machine-readable report
  serve       boot an n-replica real-time cluster behind the LTW1 binary
              protocol over TCP; SIGINT drains gracefully (pending
              operations complete) and prints latency statistics
  load        drive a closed-loop load against a served cluster (in-process
              by default, -addr for a remote server, -sim for the
              virtual-time engine) and report per-class latency quantiles
              against the paper's formulas
  stat        poll a cluster's observability endpoint (serve/load
              -metrics-addr) and render a live per-class latency/SLO table
  trace       run a deterministic virtual-time workload with causal
              tracing on and report where every tick of latency went: a
              per-class, per-term attribution table (terms provably sum
              to each operation's measured latency) plus -o Chrome
              trace-event JSON loadable in Perfetto

run 'lintime <command> -h' for command flags`)
}

// paramFlags registers the shared model-parameter flags with the
// simulator's default magnitudes.
func paramFlags(fs *flag.FlagSet) func() (simtime.Params, error) {
	return paramFlagsWith(fs, 5, int64(2*simtime.Quantum))
}

// paramFlagsWith registers the shared model-parameter flags with chosen
// defaults for n and d; the exhaustive commands (verify) default to a
// tiny n because their spaces grow exponentially in it, the real-time
// ones (serve, load) to a small d.
func paramFlagsWith(fs *flag.FlagSet, defaultN int, defaultD int64) func() (simtime.Params, error) {
	n := fs.Int("n", defaultN, "number of processes")
	d := fs.Int64("d", defaultD, "maximum message delay d")
	u := fs.Int64("u", -1, "delay uncertainty u (default d/2)")
	eps := fs.Int64("eps", -1, "clock skew ε (default optimal (1-1/n)u)")
	x := fs.Int64("x", -1, "tradeoff parameter X (default ε)")
	return func() (simtime.Params, error) {
		p := simtime.Params{N: *n, D: simtime.Duration(*d)}
		p.U = simtime.Duration(*u)
		if *u < 0 {
			p.U = p.D / 2
		}
		p.Epsilon = simtime.Duration(*eps)
		if *eps < 0 {
			p.Epsilon = simtime.OptimalEpsilon(p.N, p.U)
		}
		p.X = simtime.Duration(*x)
		if *x < 0 {
			p.X = p.Epsilon
		}
		return p, p.Validate()
	}
}

func cmdTables(args []string) error {
	fs := flag.NewFlagSet("tables", flag.ExitOnError)
	getParams := paramFlags(fs)
	table := fs.Int("table", 0, "print only this table (1-5)")
	measured := fs.Bool("measured", false, "run the simulator and add measured columns")
	all := fs.Bool("all", false, "regenerate all five tables with measured columns")
	optimal := fs.Bool("optimal", false, "measure each operation at its per-class optimal X (the paper's table entries)")
	seed := fs.Int64("seed", 1, "workload seed")
	parallel := parallelFlag(fs)
	startProfile := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := getParams()
	if err != nil {
		return err
	}
	stopProfile, err := startProfile()
	if err != nil {
		return err
	}
	if *optimal {
		for _, typeName := range []string{"rmwregister", "queue", "stack", "tree"} {
			rows, err := harness.MeasureOptimalParallel(typeName, p, *seed, *parallel)
			if err != nil {
				return err
			}
			fmt.Println(harness.FormatOptimal(typeName, rows))
		}
		return stopProfile()
	}
	if *all {
		tables, err := harness.MeasureAllTablesParallel(p, *seed, *parallel)
		if err != nil {
			return err
		}
		for _, mt := range tables {
			fmt.Println(mt)
		}
		return stopProfile()
	}
	for no := 1; no <= 5; no++ {
		if *table != 0 && no != *table {
			continue
		}
		if *measured {
			mt, err := harness.MeasureTableParallel(no, p, *seed, *parallel)
			if err != nil {
				return err
			}
			fmt.Println(mt)
		} else {
			fmt.Println(bounds.AllTables(p)[no-1])
		}
	}
	return stopProfile()
}

// parallelFlag registers the shared worker-pool width flag.
func parallelFlag(fs *flag.FlagSet) *int {
	return fs.Int("parallel", runtime.NumCPU(),
		"max simulator runs in flight (results are identical for any value)")
}

// profileFlags registers -cpuprofile/-memprofile on fs and returns a
// starter. The starter begins CPU profiling if requested and returns a
// stop function that finishes the CPU profile and writes the heap
// profile; call it on the command's success path so profile-write errors
// are surfaced.
func profileFlags(fs *flag.FlagSet) func() (func() error, error) {
	cpu := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	mem := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	return func() (func() error, error) {
		var cpuFile *os.File
		if *cpu != "" {
			f, err := os.Create(*cpu)
			if err != nil {
				return nil, err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return nil, err
			}
			cpuFile = f
		}
		stop := func() error {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					return err
				}
			}
			if *mem != "" {
				f, err := os.Create(*mem)
				if err != nil {
					return err
				}
				defer f.Close()
				runtime.GC() // flush unreachable objects before the snapshot
				if err := pprof.WriteHeapProfile(f); err != nil {
					return err
				}
			}
			return nil
		}
		return stop, nil
	}
}

func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	getParams := paramFlags(fs)
	typeName := fs.String("type", "", "classify only this data type")
	figure := fs.Bool("figure11", false, "print the computed Figure 11 class diagram")
	witnesses := fs.Bool("witnesses", false, "print the concrete witness sequences behind each property")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := getParams()
	if err != nil {
		return err
	}
	names := adt.Names()
	if *typeName != "" {
		names = []string{*typeName}
	}
	if *figure {
		var reports []classify.Report
		for _, name := range names {
			dt, err := adt.Lookup(name)
			if err != nil {
				return err
			}
			reports = append(reports, classify.Classify(dt, classify.DefaultConfig()))
		}
		fmt.Print(classify.Figure11(reports))
		return nil
	}
	// printed and executed count, by theorem, the derived lower bounds and
	// those that lintime lowerbound runs a construction for.
	var printed, executed [5]int
	for _, name := range names {
		dt, err := adt.Lookup(name)
		if err != nil {
			return err
		}
		rep := classify.Classify(dt, classify.DefaultConfig())
		fmt.Print(rep)
		fmt.Println("  derived bounds:")
		for _, row := range bounds.GenericTable(p, rep) {
			fmt.Printf("    %-10s %-4s lower: %-34s upper: %s\n",
				row.Op, row.Class, row.Lower, row.Upper)
			var thm int
			if _, err := fmt.Sscanf(row.Lower.Source, "Thm %d", &thm); err == nil {
				printed[thm]++
				if slices.Contains(lowerbound.Ops(thm, rep), row.Op) {
					executed[thm]++
				}
			}
		}
		if *witnesses {
			fmt.Println("  witnesses:")
			for _, op := range rep.Ops {
				if op.Mutator {
					fmt.Printf("    %s is a mutator:        %s\n", op.Op, op.MutatorWitness)
				}
				if op.Accessor {
					fmt.Printf("    %s is an accessor:      %s\n", op.Op, op.AccessorWitness)
				}
				if op.PairFree {
					fmt.Printf("    %s is pair-free:        %s\n", op.Op, op.PairFreeWitness)
				}
				if op.LastSensitiveK >= 2 {
					fmt.Printf("    %s is %d-last-sensitive: %s\n", op.Op, op.LastSensitiveK, op.LastWitness)
				}
			}
		}
		fmt.Println()
	}
	fmt.Printf("lower bounds executed by lintime lowerbound: %d of %d (Thm 2 %d/%d, Thm 3 %d/%d, Thm 4 %d/%d)\n",
		executed[2]+executed[3]+executed[4], printed[2]+printed[3]+printed[4],
		executed[2], printed[2], executed[3], printed[3], executed[4], printed[4])
	return nil
}

func cmdLowerbound(args []string) error {
	fs := flag.NewFlagSet("lowerbound", flag.ExitOnError)
	getParams := paramFlags(fs)
	thm := fs.Int("thm", 0, "theorem to run (2, 3, 4 or 5; 0 = all)")
	budget := fs.Int64("budget", -1, "forced operation latency (default bound-1)")
	k := fs.Int("k", 0, "Theorem 3's k (default n; only with -thm 3 or 0)")
	theorems, stock := []int{2, 3, 4, 5}, lowerbound.ScenarioTypes()
	typeName := fs.String("type", "queue", fmt.Sprintf("data type; with -thm 0, theorems that run on none of its ops are skipped "+
		"(theorem 2: each %s; theorem 3: %s; theorem 4: each %s; theorem 5: %s)",
		lowerbound.Class(2), strings.Join(stock[3], ", "), lowerbound.Class(4), strings.Join(stock[5], ", ")))
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := getParams()
	if err != nil {
		return err
	}
	if *thm != 0 {
		if !slices.Contains(theorems, *thm) {
			return fmt.Errorf("no theorem %d (have 2-5)", *thm)
		}
		if *k != 0 && *thm != 3 {
			return fmt.Errorf("lowerbound: -k is Theorem 3's k; -thm %d does not take it", *thm)
		}
		theorems = []int{*thm}
	}
	if *k == 0 {
		*k = p.N
	}
	dt, err := adt.Lookup(*typeName)
	if err != nil {
		return err
	}
	cls := classify.Classify(dt, classify.DefaultConfig())
	// budgetOr is the -budget flag, defaulting to one tick below bound.
	budgetOr := func(bound bounds.Bound) simtime.Duration {
		if *budget < 0 {
			return bound.Value - 1
		}
		return simtime.Duration(*budget)
	}
	run := func(theorem int, op string) (*lowerbound.Report, error) {
		switch theorem {
		case 2:
			return lowerbound.Theorem2(p, *typeName, op, budgetOr(bounds.QuarterU(p)))
		case 3:
			return lowerbound.Theorem3(p, *typeName, *k, budgetOr(bounds.LastSensitive(p, *k)))
		case 4:
			return lowerbound.Theorem4(p, *typeName, op, budgetOr(bounds.PairFree(p)))
		}
		// The mutator takes d-2m of the sum, the accessor the rest.
		opBudget := p.D - 2*bounds.MinPairFree(p)
		return lowerbound.Theorem5(p, *typeName, opBudget, budgetOr(bounds.SumDiscriminated(p))-opBudget)
	}
	for _, theorem := range theorems {
		ops := lowerbound.Ops(theorem, cls)
		if len(ops) == 0 {
			if *thm != 0 {
				return fmt.Errorf("lowerbound: Theorem %d runs on no op of type %q", theorem, *typeName)
			}
			fmt.Printf("Theorem %d skipped: it runs on no op of type %q\n\n", theorem, *typeName)
		}
		for _, op := range ops {
			rep, err := run(theorem, op)
			if err != nil {
				return err
			}
			fmt.Println(rep)
		}
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	getTarget := backendFlags(fs, paramFlags(fs))
	network := fs.String("net", harness.NetUniform, "network (uniform, uniform-min, random, adversarial)")
	offsets := fs.String("offsets", harness.OffZero, "clock offsets (zero, spread, alternating, random)")
	ops := fs.Int("ops", 10, "operations per process")
	seed := fs.Int64("seed", 1, "workload seed")
	check := fs.Bool("check", true, "verify linearizability of the run")
	dump := fs.String("dump", "", "write the run's history as JSON to this file (linearcheck format)")
	diagramFlag := fs.Bool("diagram", false, "print the run as an ASCII space-time diagram (paper Figure 1/3 style)")
	diagramMsgs := fs.Bool("diagram-msgs", false, "include message sends/receipts in the diagram")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, backend, dt, err := getTarget()
	if err != nil {
		return err
	}
	res, err := harness.Run(
		harness.Config{Params: p, TypeName: dt.Name(), Algorithm: backend.Name,
			Network: *network, Offsets: *offsets, Seed: *seed},
		harness.Workload{OpsPerProc: *ops, MaxGap: p.D / 2, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Print(res)
	fmt.Printf("  replicas converged: %v\n", res.Converged())
	if *check {
		fmt.Printf("  linearizable: %v\n", res.CheckLinearizable())
	}
	if *diagramFlag {
		fmt.Println()
		fmt.Print(diagram.Render(res.Trace, diagram.Options{SuppressMessages: !*diagramMsgs}))
	}
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := histio.WriteTrace(f, dt.Name(), res.Trace); err != nil {
			return err
		}
		fmt.Printf("  history written to %s\n", *dump)
	}
	return nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	getParams := paramFlags(fs)
	typeName := fs.String("type", "queue", "data type")
	points := fs.Int("points", 8, "number of sweep intervals")
	seed := fs.Int64("seed", 1, "workload seed")
	parallel := parallelFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := getParams()
	if err != nil {
		return err
	}
	pts, err := harness.SweepXParallel(p, *typeName, *points, *seed, *parallel)
	if err != nil {
		return err
	}
	fmt.Printf("X tradeoff sweep on %s (n=%d d=%v u=%v ε=%v):\n", *typeName, p.N, p.D, p.U, p.Epsilon)
	fmt.Print(harness.FormatSweep(pts))
	return nil
}

// backendFlags registers -backend and -type, which every command that
// picks a protocol shares, with help text generated from the harness
// table. The resolver adds the table entry and the data type (the
// backend's own when -type is not given) to getParams' model parameters.
func backendFlags(fs *flag.FlagSet, getParams func() (simtime.Params, error)) func() (simtime.Params, *harness.Backend, spec.DataType, error) {
	def, _ := harness.Lookup("")
	typeDefault := "default " + def.DefaultType
	for _, name := range harness.Algorithms() {
		if b, _ := harness.Lookup(name); b.DefaultType != def.DefaultType {
			typeDefault += ", -backend " + name + ": " + b.DefaultType
		}
	}
	backend := fs.String("backend", def.Name, "replicated protocol ("+strings.Join(harness.Algorithms(), ", ")+")")
	typeName := fs.String("type", "", "data type ("+strings.Join(adt.Names(), ", ")+"; "+typeDefault+")")
	return func() (simtime.Params, *harness.Backend, spec.DataType, error) {
		p, err := getParams()
		if err != nil {
			return p, nil, nil, err
		}
		b, err := harness.Lookup(*backend)
		if err != nil {
			return p, nil, nil, err
		}
		if *typeName == "" {
			*typeName = b.DefaultType
		}
		dt, err := adt.Lookup(*typeName)
		return p, b, dt, err
	}
}

// mutantFlag registers -mutant, listing each backend's seeded bugs.
func mutantFlag(fs *flag.FlagSet, matrix string) *string {
	var lists []string
	for _, name := range harness.Algorithms() {
		if b, _ := harness.Lookup(name); len(b.Mutants) > 0 {
			lists = append(lists, name+": "+strings.Join(b.MutantNames(), ", "))
		}
	}
	return fs.String("mutant", "", "seeded bug of the chosen backend ("+strings.Join(lists, "; ")+"); 'all' runs "+matrix)
}

// The matrix builders, as variables so a test can substitute a matrix
// whose control row is flagged: such a matrix fails its command once the
// outputs are flushed. Surviving mutants do not — a small space may
// legitimately hold no counterexample for one.
var fuzzKillMatrix, verifyKillMatrix = adversary.KillMatrix, bmc.KillMatrix

// controlGate is the error a kill-matrix command ends on when the
// matrix's control row (the correct protocol) was killed.
func controlGate[W any](cmd string, entries []harness.KillEntry[W]) error {
	if e := entries[0]; e.Killed {
		return fmt.Errorf("%s: the control row (the correct protocol) was killed: %s", cmd, e.Kind)
	}
	return nil
}

func cmdFuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	getTarget := backendFlags(fs, paramFlags(fs))
	mutant := mutantFlag(fs, "the kill matrix")
	strong := fs.Bool("strong", false, "hunt schedules that are linearizable in every future but not strongly linearizable")
	budget := fs.Int("budget", 1000, "schedules to explore (per target)")
	seed := fs.Int64("seed", 1, "master seed for schedule generation")
	strategies := fs.String("strategies", "", "comma-separated strategies ("+strings.Join(adversary.Strategies(), ", ")+"; default all)")
	noShrink := fs.Bool("no-shrink", false, "report raw violating schedules without delta-debugging them")
	parallel := parallelFlag(fs)
	startProfile := profileFlags(fs)
	startObs := obsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, backend, dt, err := getTarget()
	if err != nil {
		return err
	}
	stopProfile, err := startProfile()
	if err != nil {
		return err
	}
	ob, err := startObs(obs.Handler(obs.Default), []*obs.Registry{obs.Default}, 0, nil)
	if err != nil {
		return err
	}
	defer ob.stop()
	var strats []string
	if *strategies != "" {
		strats = strings.Split(*strategies, ",")
	}
	opts := adversary.Options{
		Params:     p,
		DT:         dt,
		Target:     adversary.Target{Algorithm: backend.Name, Mutant: *mutant},
		Seed:       *seed,
		Budget:     *budget,
		Strategies: strats,
		Parallel:   *parallel,
		Shrink:     !*noShrink,
	}
	runner := &adversary.Runner{Params: p, DT: dt, Target: opts.Target}
	var gate error
	switch {
	case *strong:
		if *mutant == "all" {
			return fmt.Errorf("fuzz: -strong hunts one target at a time; pick a -mutant or none")
		}
		opts.StopEarly = true
		srep, err := adversary.StrongHunt(opts)
		if err != nil {
			return err
		}
		if err := adversary.WriteStrongReport(os.Stdout, runner, srep); err != nil {
			return err
		}
	case *mutant == "all":
		opts.Target.Mutant = ""
		runner.Target.Mutant = ""
		entries, err := fuzzKillMatrix(opts)
		if err != nil {
			return err
		}
		fmt.Printf("mutant kill matrix on %s (n=%d d=%v u=%v eps=%v X=%v, budget %d, seed %d):\n\n",
			dt.Name(), p.N, p.D, p.U, p.Epsilon, p.X, *budget, *seed)
		if err := adversary.WriteKillMatrix(os.Stdout, runner, entries); err != nil {
			return err
		}
		gate = controlGate("fuzz", entries)
	default:
		opts.StopEarly = *mutant != ""
		rep, err := adversary.Fuzz(opts)
		if err != nil {
			return err
		}
		if err := adversary.WriteReport(os.Stdout, runner, rep); err != nil {
			return err
		}
	}
	if err := ob.flush(); err != nil {
		return err
	}
	if err := stopProfile(); err != nil {
		return err
	}
	return gate
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	getTarget := backendFlags(fs, paramFlagsWith(fs, 2, int64(2*simtime.Quantum)))
	mutant := mutantFlag(fs, "the exhaustive kill matrix")
	maxOps := fs.Int("ops", 3, "max planned operations per schedule (the space grows exponentially)")
	strong := fs.Bool("strong", true, "also sweep each context's futures for strong linearizability (defaults off for a backend whose futures violate prefixes by design)")
	jsonOut := fs.Bool("json", false, "emit the machine-readable report as JSON")
	stopEarly := fs.Bool("stop-early", false, "stop at the first chunk containing a violation")
	parallel := parallelFlag(fs)
	startProfile := profileFlags(fs)
	startObs := obsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, backend, dt, err := getTarget()
	if err != nil {
		return err
	}
	strongSet := false
	fs.Visit(func(f *flag.Flag) { strongSet = strongSet || f.Name == "strong" })
	if !strongSet {
		*strong = !backend.NoStrongSweep
	}
	stopProfile, err := startProfile()
	if err != nil {
		return err
	}
	ob, err := startObs(obs.Handler(obs.Default), []*obs.Registry{obs.Default}, 0, nil)
	if err != nil {
		return err
	}
	defer ob.stop()
	cfg := bmc.Config{
		Params:    p,
		DT:        dt,
		Target:    adversary.Target{Algorithm: backend.Name, Mutant: *mutant},
		MaxOps:    *maxOps,
		Strong:    *strong,
		StopEarly: *stopEarly,
		Parallel:  *parallel,
	}
	var gate error
	if *mutant == "all" {
		cfg.Target.Mutant = ""
		entries, err := verifyKillMatrix(cfg)
		if err != nil {
			return err
		}
		if *jsonOut {
			if err := writeJSON(entries); err != nil {
				return err
			}
		} else {
			fmt.Printf("exhaustive mutant kill matrix on %s (n=%d d=%v u=%v eps=%v X=%v, max %d ops):\n\n",
				dt.Name(), p.N, p.D, p.U, p.Epsilon, p.X, *maxOps)
			bmc.WriteKillMatrix(os.Stdout, entries)
		}
		gate = controlGate("verify", entries)
	} else {
		rep, err := bmc.Verify(cfg)
		if err != nil {
			return err
		}
		if *jsonOut {
			if err := writeJSON(rep); err != nil {
				return err
			}
		} else {
			runner := &adversary.Runner{Params: p, DT: dt, Target: cfg.Target}
			if err := bmc.WriteReport(os.Stdout, runner, rep); err != nil {
				return err
			}
		}
	}
	if err := ob.flush(); err != nil {
		return err
	}
	if err := stopProfile(); err != nil {
		return err
	}
	return gate
}

func cmdSync(args []string) error {
	fs := flag.NewFlagSet("sync", flag.ExitOnError)
	getParams := paramFlags(fs)
	seed := fs.Int64("seed", 1, "seed for initial offsets and delays")
	spread := fs.Int64("spread", 0, "initial offsets drawn from [0, spread] (default 50d)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := getParams()
	if err != nil {
		return err
	}
	maxOff := simtime.Duration(*spread)
	if maxOff <= 0 {
		maxOff = 50 * p.D
	}
	initial := sim.RandomOffsets(p.N, maxOff, *seed)
	corrected, err := clocksync.Run(p, initial, sim.NewRandomNetwork(p.D, p.U, *seed+1))
	if err != nil {
		return err
	}
	skew := func(offs []simtime.Duration) simtime.Duration {
		var max simtime.Duration
		for i := range offs {
			for j := range offs {
				if s := (offs[i] - offs[j]).Abs(); s > max {
					max = s
				}
			}
		}
		return max
	}
	fmt.Printf("clock synchronization (n=%d, delays in [%v, %v]):\n", p.N, p.MinDelay(), p.D)
	fmt.Printf("  initial offsets:   %v (skew %v)\n", initial, skew(initial))
	fmt.Printf("  corrected offsets: %v (skew %v)\n", corrected, skew(corrected))
	fmt.Printf("  optimal bound (1-1/n)u = %v [Lundelius & Lynch]\n", clocksync.Bound(p))
	return nil
}
