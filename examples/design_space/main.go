// Design-space exploration: for a randomly generated application (a
// conditional process graph with 80 processes and 12 alternative paths) this
// example sweeps the number of programmable processors and buses and reports
// how the guaranteed worst-case delay δmax changes — the performance
// estimation use-case motivated in the introduction of the paper.
//
// All architecture variants are scheduled in one ScheduleBatch call: the
// service fans the independent problems out under its global worker budget
// and returns the solutions in input order.
//
// Run with:
//
//	go run ./examples/design_space
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/gen"
	"repro/internal/service"
)

func main() {
	const (
		nodes = 80
		paths = 12
		seed  = 42
	)
	fmt.Printf("application: %d processes, %d alternative paths (seed %d)\n\n", nodes, paths, seed)

	type variant struct{ processors, buses int }
	var variants []variant
	var problems []*service.Problem
	for _, processors := range []int{1, 2, 3, 4, 6} {
		for _, buses := range []int{1, 2} {
			// The same seed keeps the application identical; only the
			// architecture (and therefore the random mapping) changes.
			inst, err := gen.Generate(gen.Config{
				Seed:        seed,
				Nodes:       nodes,
				TargetPaths: paths,
				Processors:  processors,
				Hardware:    1,
				Buses:       buses,
			})
			if err != nil {
				log.Fatal(err)
			}
			variants = append(variants, variant{processors, buses})
			problems = append(problems, &service.Problem{Graph: inst.Graph, Arch: inst.Arch})
		}
	}

	svc, err := service.New(service.Config{})
	if err != nil {
		log.Fatal(err)
	}
	sols, err := svc.ScheduleBatch(context.Background(), problems)
	if err != nil {
		log.Fatal(err)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "processors\tbuses\tδM\tδmax\tincrease\tmerge time")
	for i, sol := range sols {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.2f%%\t%v\n",
			variants[i].processors, variants[i].buses,
			sol.DeltaM, sol.DeltaMax, sol.IncreasePercent(), sol.Stats.MergeTime)
	}
	w.Flush()

	fmt.Println("\nNote: the mapping of processes to processors is drawn randomly per")
	fmt.Println("architecture, as in the paper's synthetic experiments; δmax is the delay")
	fmt.Println("guaranteed by the generated schedule table for any combination of")
	fmt.Println("condition values.")
}
