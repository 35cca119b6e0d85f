package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/expr"
	"repro/internal/gen"
)

// TestScheduleAllocs pins the allocations of one sequential core.Schedule
// run: path scheduling, the merge, validation and simulation. An allocation
// that creeps back into the dense schedule state (per-path schedules, lock
// sets, table rows, traces) shows up here first.
func TestScheduleAllocs(t *testing.T) {
	fig1G, fig1A, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	inst, err := gen.Generate(gen.RandomConfig(rand.New(rand.NewSource(120)), 120, 32))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, c := range []struct {
		name    string
		g       *cpg.Graph
		a       *arch.Architecture
		ceiling float64
	}{
		{"figure1", fig1G, fig1A, 460},
		{"generated 120 nodes, 32 paths", inst.Graph, inst.Arch, 3000},
	} {
		if raceEnabled {
			// The race runtime may allocate where a normal build does
			// not; give it its own margin.
			c.ceiling *= 1.1
		}
		n := testing.AllocsPerRun(20, func() {
			if _, err := core.Schedule(c.g, c.a, core.Options{Workers: 1}); err != nil {
				t.Fatalf("Schedule: %v", err)
			}
		})
		t.Logf("%s: %.0f allocs per run", c.name, n)
		if n > c.ceiling {
			t.Errorf("core.Schedule(%s) allocates %.0f times per run, ceiling %.0f", c.name, n, c.ceiling)
		}
	}
}
