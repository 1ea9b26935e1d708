package adversary

import (
	"fmt"
	"io"
	"strings"

	"lintime/internal/diagram"
	"lintime/internal/harness"
)

// WriteReport renders a campaign report as deterministic plain text,
// including a rendered space-time diagram for each (shrunk) violation.
func WriteReport(w io.Writer, r *Runner, rep *Report) error {
	fmt.Fprintf(w, "target      %s on %s\n", rep.Target, r.DT.Name())
	fmt.Fprintf(w, "params      n=%d d=%v u=%v eps=%v X=%v\n",
		r.Params.N, r.Params.D, r.Params.U, r.Params.Epsilon, r.Params.X)
	fmt.Fprintf(w, "schedules   %d", rep.Schedules)
	parts := make([]string, 0, len(rep.ByStrategy))
	for _, s := range rep.SortedStrategies() {
		parts = append(parts, fmt.Sprintf("%s %d", s, rep.ByStrategy[s]))
	}
	if len(parts) > 0 {
		fmt.Fprintf(w, " (%s)", strings.Join(parts, ", "))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "signatures  %d distinct event orderings\n", rep.Signatures)
	fmt.Fprintf(w, "violations  %d\n", len(rep.Violations))
	for vi := range rep.Violations {
		v := &rep.Violations[vi]
		fmt.Fprintf(w, "\n--- violation %d: %s (schedule %d, strategy %s) ---\n",
			vi+1, v.Kind, v.Index, v.Strategy)
		minimal := v.Schedule
		if v.Shrunk != nil {
			fmt.Fprintf(w, "shrunk from %d ops / %d delays to %d ops / %d delays in %d runs; minimal violation: %s\n",
				v.Schedule.NumOps(), len(v.Schedule.Delays),
				v.Shrunk.NumOps(), len(v.Shrunk.Delays), v.Runs, v.ShrunkKind)
			minimal = *v.Shrunk
		}
		fmt.Fprint(w, minimal.String())
		if err := WriteDiagram(w, r, minimal); err != nil {
			return err
		}
	}
	return nil
}

// WriteDiagram replays a violating schedule and renders its violation
// kind and space-time diagram.
func WriteDiagram(w io.Writer, r *Runner, s Schedule) error {
	out, err := r.Run(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replayed violation: %s\n", out.Violation())
	fmt.Fprint(w, diagram.Render(out.Trace, diagram.Options{SuppressMessages: true, MaxRows: 40}))
	return nil
}

// WriteKillMatrix renders a fuzzing kill matrix as deterministic text:
// the table, then each shrunk witness with its replayed diagram.
func WriteKillMatrix(w io.Writer, r *Runner, entries []KillEntry) error {
	harness.WriteKillMatrix(w, entries, harness.KillWording{
		Runs: "schedules", Clean: "clean", Survived: "survived", VerdictWidth: 24})
	for _, e := range entries {
		if e.Witness == nil || e.Witness.Shrunk == nil {
			continue
		}
		fmt.Fprintf(w, "\n--- %s minimal counterexample (%s) ---\n", e.Mutant, e.Witness.ShrunkKind)
		fmt.Fprint(w, e.Witness.Shrunk.String())
		target := Target{Algorithm: r.Target.Algorithm, Mutant: e.Mutant}
		if e.Mutant == "correct" { // a killed control replays on the correct protocol
			target.Mutant = ""
		}
		rr := &Runner{Params: r.Params, DT: r.DT, Target: target}
		if err := WriteDiagram(w, rr, *e.Witness.Shrunk); err != nil {
			return err
		}
	}
	return nil
}
