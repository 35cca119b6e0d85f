// Figure 1 worked example: reconstructs the conditional process graph of
// Fig. 1 of the paper (17 processes on two processors and one ASIC, three
// conditions C, D, K), schedules it through the scheduling service and
// prints the analogues of Fig. 2 (path delays) and Table 1 (schedule table),
// all read from the versioned solution document — the same JSON a cpgserve
// server would return for the same problem.
//
// Run with:
//
//	go run ./examples/figure1
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/service"
	"repro/internal/textio"
)

func main() {
	g, a, err := expr.Figure1()
	if err != nil {
		log.Fatal(err)
	}

	// Bundle the worked example into a v1 problem document — the format
	// cpgsched reads and cpgserve accepts over HTTP — and schedule it.
	prob := textio.EncodeProblem(g, a, core.Options{})
	hash, err := textio.ProblemHash(prob)
	if err != nil {
		log.Fatal(err)
	}
	req, err := service.FromDoc(prob)
	if err != nil {
		log.Fatal(err)
	}
	svc, err := service.New(service.Config{})
	if err != nil {
		log.Fatal(err)
	}
	sol, err := svc.Schedule(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}
	doc := textio.EncodeSolution(sol.Result)

	fmt.Println("Worked example (Fig. 1 of the paper)")
	fmt.Printf("problem document: version %s, content hash %.12s…\n\n", prob.Version, hash)
	fmt.Println("Length of the optimal schedule for the alternative paths (cf. Fig. 2):")
	paths := doc.Paths
	sort.Slice(paths, func(i, j int) bool {
		if paths[i].OptimalDelay != paths[j].OptimalDelay {
			return paths[i].OptimalDelay > paths[j].OptimalDelay
		}
		return paths[i].Label < paths[j].Label
	})
	for _, p := range paths {
		fmt.Printf("  %-12s %d\n", p.Label, p.OptimalDelay)
	}
	fmt.Printf("δM (longest optimal path) = %d\n", doc.DeltaM)
	fmt.Printf("δmax (worst case of the schedule table) = %d\n", doc.DeltaMax)
	fmt.Printf("increase = %.2f%%\n", doc.IncreasePercent)
	fmt.Printf("deterministic = %v\n\n", doc.Deterministic)
	fmt.Println("Schedule table (cf. Table 1):")
	fmt.Print(doc.TableText)

	s := sol.Result.Stats
	fmt.Println("\nmerging statistics:")
	fmt.Printf("  alternative paths    %d\n", s.Paths)
	fmt.Printf("  back-steps           %d\n", s.BackSteps)
	fmt.Printf("  conflicts resolved   %d of %d\n", s.ConflictsResolved, s.Conflicts)
	fmt.Printf("  locked activations   %d\n", s.Locks)
	fmt.Printf("  table columns        %d\n", s.Columns)
	fmt.Printf("  table entries        %d\n", s.Entries)
	fmt.Printf("  path scheduling time %v\n", s.PathSchedulingTime)
	fmt.Printf("  merging time         %v\n", s.MergeTime)
}
