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
// request. The memo and the warm-start cache share each result, which keeps
// the graph and architecture, the table, the path list and the per-path
// schedules, but no subgraphs and no problem document.
func TestMemoRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations would count as retained heap")
	}
	const ceilingKB = 250
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
