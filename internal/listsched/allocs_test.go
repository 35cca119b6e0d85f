package listsched_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cpg"
	"repro/internal/expr"
	"repro/internal/listsched"
)

// TestScheduleAllocsRegression pins the per-run allocation count of the list
// scheduler on the worked example of the paper. The scratch-reusing form only
// allocates the resulting PathSchedule, whose state is dense slices sized
// once; the convenience form adds the throwaway scratch buffers. If either
// bound regresses, an allocation crept back into the scheduling hot path.
func TestScheduleAllocsRegression(t *testing.T) {
	g, a, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	paths, err := g.AlternativePaths(0)
	if err != nil {
		t.Fatalf("AlternativePaths: %v", err)
	}
	sub := g.Subgraph(paths[0])
	sc := listsched.NewScratch()
	if _, _, err := sc.Schedule(sub, a, listsched.Options{}); err != nil {
		t.Fatalf("Schedule: %v", err)
	}

	// The resulting PathSchedule (struct, dense index, entries and condition
	// records), the diagnostics and the architecture's element lists. The
	// convenience form adds the throwaway scratch slices.
	maxReused, maxFresh := 9.0, 40.0
	if raceEnabled {
		// The race runtime may allocate where a normal build does not;
		// keep the pins exact for normal builds only.
		maxReused, maxFresh = 12, 43
	}
	reused := testing.AllocsPerRun(200, func() {
		if _, _, err := sc.Schedule(sub, a, listsched.Options{}); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
	})
	if reused > maxReused {
		t.Errorf("Scratch.Schedule allocates %.0f times per run, want <= %.0f", reused, maxReused)
	}

	fresh := testing.AllocsPerRun(200, func() {
		if _, _, err := listsched.Schedule(sub, a, listsched.Options{}); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
	})
	if fresh > maxFresh {
		t.Errorf("Schedule allocates %.0f times per run, want <= %.0f", fresh, maxFresh)
	}
}

// TestScratchReuseAcrossShrinkingGraphs schedules a large graph (whose
// disjunction processes have high identifiers) and then a much smaller graph
// with the same scratch. A regression here means reset replays the previous
// graph's dirty decider slots after truncating the buffers, which panics with
// an out-of-range index.
func TestScratchReuseAcrossShrinkingGraphs(t *testing.T) {
	big, bigArch, err := expr.Figure1() // 17 processes + comms, 3 conditions
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	bigPaths, err := big.AlternativePaths(0)
	if err != nil {
		t.Fatalf("AlternativePaths: %v", err)
	}

	smallArch := arch.New()
	cpu := smallArch.AddProcessor("cpu", 1)
	small := cpg.New("small")
	p1 := small.AddProcess("A", 2, cpu)
	p2 := small.AddProcess("B", 3, cpu)
	small.AddEdge(p1, p2)
	if err := small.Finalize(smallArch); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	smallPaths, err := small.AlternativePaths(0)
	if err != nil {
		t.Fatalf("AlternativePaths(small): %v", err)
	}

	sc := listsched.NewScratch()
	for i := 0; i < 3; i++ {
		for _, p := range bigPaths {
			if _, _, err := sc.Schedule(big.Subgraph(p), bigArch, listsched.Options{}); err != nil {
				t.Fatalf("Schedule(big): %v", err)
			}
		}
		for _, p := range smallPaths {
			ps, _, err := sc.Schedule(small.Subgraph(p), smallArch, listsched.Options{})
			if err != nil {
				t.Fatalf("Schedule(small): %v", err)
			}
			if ps.Delay != 5 {
				t.Fatalf("small graph delay = %d, want 5", ps.Delay)
			}
		}
	}
}
