// Command cpgsim generates the schedule table for a problem and then
// re-enacts the run-time behaviour of the distributed scheduler, either for
// every alternative path or for one specific combination of condition values.
//
// Usage:
//
//	cpgsim -in problem.json                 # simulate every alternative path
//	cpgsim -in problem.json -cond C=1,K=0   # simulate one combination
//
// For every simulated execution the command prints the activation time of
// each process, the completion time and any violation of the requirements of
// section 3 of the paper (there should be none).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"

	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/sim"
	"repro/internal/textio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cpgsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cpgsim", flag.ContinueOnError)
	fs.SetOutput(out)
	in := fs.String("in", "", "problem JSON file (default: stdin)")
	condSpec := fs.String("cond", "", "comma separated condition values, e.g. C=1,K=0 (default: all paths)")
	verbose := fs.Bool("v", false, "print the activation time of every process")
	if err := fs.Parse(args); err != nil {
		return err
	}

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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	sol, err := core.ScheduleContext(ctx, g, a, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "schedule table generated: deltaM=%d deltaMax=%d deterministic=%v\n",
		sol.DeltaM, sol.DeltaMax, sol.Deterministic())

	// The scheduling result carries the subgraph of every alternative path;
	// re-enact against those instead of re-extracting them.
	selected := sol.Subgraphs
	if *condSpec != "" {
		label, err := textio.ParseConds(g, *condSpec)
		if err != nil {
			return err
		}
		selected = nil
		for _, sub := range sol.Subgraphs {
			if sub.Label.Implies(label) {
				selected = append(selected, sub)
			}
		}
		if len(selected) == 0 {
			return fmt.Errorf("no alternative path matches %q", *condSpec)
		}
	}

	for _, sub := range selected {
		tr, err := sim.RunSubgraph(sub, a, sol.Table)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\npath %s: completion time %d, violations %d\n",
			sub.Label.Format(g.CondName), tr.Delay, len(tr.Violations))
		for _, v := range tr.Violations {
			fmt.Fprintf(out, "  violation: %s\n", v)
		}
		if *verbose {
			printTrace(out, g, tr)
		}
	}
	return nil
}

// printTrace prints one execution trace ordered by activation time.
func printTrace(out io.Writer, g *cpg.Graph, tr *sim.Trace) {
	type line struct {
		name       string
		start, end int64
	}
	var lines []line
	for _, act := range tr.Activations {
		k := act.Key
		name := k.String()
		if k.IsCond {
			name = "broadcast " + g.CondName(k.Cond)
		} else if p := g.Process(k.Proc); p != nil {
			name = p.Name
		}
		lines = append(lines, line{name: name, start: act.Start, end: act.End})
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].start != lines[j].start {
			return lines[i].start < lines[j].start
		}
		return lines[i].name < lines[j].name
	})
	for _, l := range lines {
		fmt.Fprintf(out, "  %6d .. %6d  %s\n", l.start, l.end, l.name)
	}
}
