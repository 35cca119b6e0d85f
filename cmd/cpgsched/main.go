// Command cpgsched generates the schedule table for a conditional process
// graph described in the versioned v1 problem document format (cpggen emits
// it).
//
// Usage:
//
//	cpgsched -in problem.json [-selection largest|smallest|first]
//	         [-priority cp|order] [-conflicts move|delay]
//	         [-strategy critical-path|tabu] [-tabu-iters N]
//	         [-gantt] [-dot out.dot] [-solution out.json] [-quiet]
//
// Scheduling options embedded in the document (its "options" member) are the
// defaults; command line flags override them. The command prints the delays
// of the alternative paths, δM, δmax, the merging statistics and the
// schedule table (in the style of Table 1 of the paper). With -gantt it
// additionally prints the optimal schedule of every path as a time chart;
// with -dot it writes a Graphviz rendering of the graph; with -solution it
// writes the v1 solution document. Interrupting the command (Ctrl-C)
// cancels the run promptly, even in the middle of a long merge.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/textio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cpgsched:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cpgsched", flag.ContinueOnError)
	fs.SetOutput(out)
	in := fs.String("in", "", "problem JSON file (default: stdin)")
	selection := fs.String("selection", "", "path selection after back-steps: largest, smallest or first (default: document options)")
	priority := fs.String("priority", "", "list scheduling priority for individual paths: cp (critical path) or order (default: document options)")
	conflicts := fs.String("conflicts", "", "conflict resolution: move (Theorem 2) or delay (default: document options)")
	strategy := fs.String("strategy", "", "per-path scheduling strategy: critical-path or tabu (default: document options)")
	tabuIters := fs.Int("tabu-iters", 0, "tabu strategy: improvement iterations per path (0 = default)")
	gantt := fs.Bool("gantt", false, "print the optimal schedule of every path as a time chart")
	dispatch := fs.Bool("dispatch", false, "print the per-processing-element dispatch tables")
	dot := fs.String("dot", "", "write a Graphviz DOT rendering of the graph to this file")
	csvOut := fs.String("csv", "", "write the schedule table as CSV to this file")
	jsonOut := fs.String("table-json", "", "write the schedule table as JSON to this file")
	solOut := fs.String("solution", "", "write the v1 solution document to this file")
	quiet := fs.Bool("quiet", false, "print only the delays")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	doc, err := textio.ReadProblem(r)
	if err != nil {
		return err
	}
	g, a, opts, err := textio.DecodeProblem(doc)
	if err != nil {
		return err
	}

	// The document options are the defaults; explicitly passed flags win.
	if *selection != "" {
		if opts.PathSelection, err = textio.ParseSelection(*selection); err != nil {
			return err
		}
	}
	if *priority != "" {
		if opts.PathPriority, err = textio.ParsePriority(*priority); err != nil {
			return err
		}
	}
	if *conflicts != "" {
		if opts.ConflictPolicy, err = textio.ParseConflicts(*conflicts); err != nil {
			return err
		}
	}
	if *strategy != "" {
		if opts.Strategy, err = textio.ParseStrategy(*strategy); err != nil {
			return err
		}
	}
	if set["tabu-iters"] {
		opts.StrategyParams.TabuIterations = *tabuIters
	}

	if *dot != "" {
		if err := os.WriteFile(*dot, []byte(textio.DOT(g, a)), 0o644); err != nil {
			return err
		}
	}

	// Ctrl-C cancels the run between back-steps of the merge.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := core.ScheduleContext(ctx, g, a, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "graph %s: %d processes, %d conditions, %d alternative paths\n",
		g.Name(), g.NumOrdinary(), g.NumConds(), len(res.Paths))
	for _, p := range res.Paths {
		fmt.Fprintf(out, "  path %-20s optimal %6d   table %6d\n",
			p.Label.Format(g.CondName), p.OptimalDelay, p.TableDelay)
	}
	fmt.Fprintf(out, "deltaM   = %d\n", res.DeltaM)
	fmt.Fprintf(out, "deltaMax = %d (increase %.2f%%)\n", res.DeltaMax, res.IncreasePercent())
	fmt.Fprintf(out, "deterministic = %v\n", res.Deterministic())
	if !res.Deterministic() {
		for _, v := range res.Violations {
			fmt.Fprintf(out, "  violation: %s\n", v)
		}
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			return err
		}
		if err := textio.WriteTableCSV(f, g, res.Table); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := textio.WriteTableJSON(f, g, res.Table); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *solOut != "" {
		f, err := os.Create(*solOut)
		if err != nil {
			return err
		}
		if err := textio.WriteSolution(f, textio.EncodeSolution(res)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *quiet {
		return nil
	}
	s := res.Stats
	fmt.Fprintf(out, "stats: %d back-steps, %d conflicts (%d resolved), %d locks, %d columns, %d entries\n",
		s.BackSteps, s.Conflicts, s.ConflictsResolved, s.Locks, s.Columns, s.Entries)
	fmt.Fprintf(out, "timing: path scheduling %v, merging %v, validation %v\n\n",
		s.PathSchedulingTime, s.MergeTime, s.ValidationTime)
	fmt.Fprintln(out, "schedule table:")
	fmt.Fprint(out, res.Table.Render(table.RenderOptions{Namer: g.CondName, RowName: res.RowName}))
	if *dispatch {
		fmt.Fprintln(out, "\nper-processing-element dispatch tables:")
		fmt.Fprint(out, core.RenderDispatch(res, core.Dispatch(res)))
	}
	if *gantt {
		fmt.Fprintln(out, "\noptimal path schedules:")
		for _, ps := range res.Schedules {
			fmt.Fprint(out, ps.Gantt(a, res.RowName))
			fmt.Fprintln(out)
		}
	}
	return nil
}
