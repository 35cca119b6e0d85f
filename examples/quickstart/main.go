// Quickstart: build a small conditional process graph by hand, map it onto a
// two-processor architecture, generate the schedule table through the
// scheduling service and inspect the result.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/cpg"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/table"
)

func main() {
	// Architecture: two programmable processors and one shared bus that
	// connects them (condition values are broadcast on it, τ0 = 1).
	a := arch.New()
	cpu1 := a.AddProcessor("cpu1", 1)
	cpu2 := a.AddProcessor("cpu2", 1)
	bus := a.AddBus("bus", true)
	a.SetCondTime(1)

	// Application: a sensor-processing step D decides whether the input
	// needs the expensive filter X (condition C true, off-loaded to cpu2)
	// or the cheap fallback Y (condition C false, kept on cpu1). Both
	// variants feed the actuator step Z.
	g := cpg.New("quickstart")
	d := g.AddProcess("D", 4, cpu1)
	x := g.AddProcess("X", 9, cpu2)
	y := g.AddProcess("Y", 3, cpu1)
	z := g.AddProcess("Z", 2, cpu1)
	c := g.AddCondition("C", d)
	g.AddCondEdge(d, x, c, true)
	g.AddCondEdge(d, y, c, false)
	g.AddEdge(x, z)
	g.AddEdge(y, z)

	// Insert communication processes on every edge that crosses processor
	// boundaries (here: D->X and X->Z), each taking 2 time units on the bus.
	if _, err := cpg.InsertComms(g, a, cpg.UniformComms(2, bus)); err != nil {
		log.Fatal(err)
	}

	// Generate the schedule table that minimises the worst-case delay. The
	// service front end adds cancellation, a shared worker budget and a
	// solved-problem memo on top of core.Schedule; one service instance
	// would normally be shared by the whole program.
	svc, err := service.New(service.Config{})
	if err != nil {
		log.Fatal(err)
	}
	sol, err := svc.Schedule(context.Background(), &service.Problem{Graph: g, Arch: a})
	if err != nil {
		log.Fatal(err)
	}
	res := sol.Result

	fmt.Printf("alternative paths: %d\n", len(res.Paths))
	for _, p := range res.Paths {
		fmt.Printf("  %-8s optimal delay %2d, delay under the table %2d\n",
			p.Label.Format(g.CondName), p.OptimalDelay, p.TableDelay)
	}
	fmt.Printf("worst case delay guaranteed by the table: %d (longest path alone needs %d)\n\n",
		res.DeltaMax, res.DeltaM)

	fmt.Println("schedule table (one row per process, one column per condition context):")
	fmt.Print(res.Table.Render(table.RenderOptions{Namer: g.CondName, RowName: res.RowName}))

	// Re-enact the execution for each combination of condition values and
	// confirm the run-time behaviour matches the table.
	paths, err := g.AlternativePaths(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsimulated executions:")
	for _, p := range paths {
		tr, err := sim.Run(g, a, res.Table, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s finishes at %2d, violations: %d\n",
			p.Label.Format(g.CondName), tr.Delay, len(tr.Violations))
	}

	// Asking the service again for the same problem is answered from its
	// memo: the content hash of the problem document identifies the run.
	again, err := svc.Schedule(context.Background(), &service.Problem{Graph: g, Arch: a})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrescheduling the same problem: cache hit = %v (hash %.12s…)\n",
		again.CacheHit, again.ProblemHash)
}
