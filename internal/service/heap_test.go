package service

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/textio"
)

// TestMemoRetainedHeap pins the heap a memoized result keeps alive on the
// paper's grid: nodes 60, 80 and 120 × paths 10, 12, 18, 24 and 32, three
// problems per cell, decoded from their documents as the server decodes a
// request. The memo keeps each result with what /v1/schedule serves: the
// graph and architecture, the table, the path list, the violations and the
// stats, but no subgraphs, no per-path schedules and no problem document.
func TestMemoRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations would count as retained heap")
	}
	const ceilingKB = 120
	svc := mustNew(t, Config{Workers: 1})
	heap := func() uint64 {
		// The second collection empties the pools' victim caches.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	n := 0
	for _, nodes := range []int{60, 80, 120} {
		for _, paths := range []int{10, 12, 18, 24, 32} {
			for seed := int64(1); seed <= 3; seed++ {
				r := rand.New(rand.NewSource(seed*1000 + int64(nodes+paths)))
				inst, err := gen.Generate(gen.RandomConfig(r, nodes, paths))
				if err != nil {
					t.Fatalf("Generate(%d nodes, %d paths, seed %d): %v", nodes, paths, seed, err)
				}
				prob, err := FromDoc(textio.EncodeProblem(inst.Graph, inst.Arch, core.Options{}))
				if err != nil {
					t.Fatalf("FromDoc: %v", err)
				}
				if _, err := svc.Schedule(context.Background(), prob); err != nil {
					t.Fatalf("Schedule(%d nodes, %d paths, seed %d): %v", nodes, paths, seed, err)
				}
				n++
			}
		}
	}
	kb := (float64(heap()) - float64(before)) / 1024 / float64(n)
	if got := svc.Stats().CacheLen; got != n {
		t.Fatalf("the memo holds %d results, want %d", got, n)
	}
	t.Logf("a memoized grid result keeps %.0f KB alive (mean of %d)", kb, n)
	if kb > ceilingKB {
		t.Errorf("a memoized grid result keeps %.0f KB alive, ceiling %d KB", kb, ceilingKB)
	}
}

// TestDecodeProblemAllocs pins the allocations of decoding one problem
// document into a finalized graph, as every /v1/schedule request does: the
// grid problem of seed 9 with 120 nodes and 12 paths (166 processes, 253
// edges, 5 conditions): 89 measured. Building and finalizing the graph
// allocates per graph, not per process, edge or guard.
func TestDecodeProblemAllocs(t *testing.T) {
	ceiling := 95.0
	if raceEnabled {
		// The race runtime may allocate where a normal build does not.
		ceiling *= 1.1
	}
	var doc *textio.ProblemDoc
	r := rand.New(rand.NewSource(9))
	for _, nodes := range []int{60, 80, 120} {
		for _, paths := range []int{10, 12, 18, 24, 32} {
			cfg := gen.RandomConfig(r, nodes, paths)
			if nodes != 120 || paths != 12 {
				continue
			}
			inst, err := gen.Generate(cfg)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			doc = textio.EncodeProblem(inst.Graph, inst.Arch, core.Options{})
		}
	}
	prob, err := FromDoc(doc)
	if err != nil {
		t.Fatalf("FromDoc: %v", err)
	}
	n := testing.AllocsPerRun(50, func() {
		if _, err := FromDoc(doc); err != nil {
			t.Fatalf("FromDoc: %v", err)
		}
	})
	g := prob.Graph
	t.Logf("FromDoc: %.0f allocs, %d processes, %d edges, %d conditions", n, g.NumProcs(), len(g.Edges()), g.NumConds())
	if n > ceiling {
		t.Errorf("FromDoc allocates %.0f times, ceiling %.0f", n, ceiling)
	}
}
