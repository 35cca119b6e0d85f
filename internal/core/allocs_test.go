package core_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/expr"
	"repro/internal/gen"
)

// TestScheduleAllocs pins the allocations of one core.Schedule run: path
// scheduling, the merge, validation and simulation. An allocation that
// creeps back into the dense schedule state (per-path schedules, the merge's
// recycled schedules and lock set, subgraphs, table rows, traces) shows up
// here first. The scratches come from pools shared across runs: 206 and
// 1,434 allocations measured with the pools warm, 253 and 1,545 with them
// empty, so the ceilings hold either way.
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
		{"figure1", fig1G, fig1A, 295},
		{"generated 120 nodes, 32 paths", inst.Graph, inst.Arch, 1700},
	} {
		if raceEnabled {
			// The race runtime may allocate where a normal build does
			// not; give it its own margin.
			c.ceiling *= 1.1
		}
		n := testing.AllocsPerRun(20, func() {
			if _, err := core.Schedule(c.g, c.a, core.Options{}); err != nil {
				t.Fatalf("Schedule: %v", err)
			}
		})
		t.Logf("%s: %.0f allocs per run", c.name, n)
		if n > c.ceiling {
			t.Errorf("core.Schedule(%s) allocates %.0f times per run, ceiling %.0f", c.name, n, c.ceiling)
		}
	}
}

// TestWorkspaceAllocs pins what a recycled core.Workspace allocates per graph
// in the steady state of a sweep worker: after one warm-up pass over the 30
// graphs of a reduced sweep, a second pass may allocate at most 40 KB and 250
// times per graph (11.1 KB and 118 measured, against 364 KB and 854 for
// core.Schedule). What is left is the path enumeration, the
// simulator's traces and the per-run closures; a buffer of the per-graph state
// that stops being recycled shows up here first.
func TestWorkspaceAllocs(t *testing.T) {
	cfg := expr.SweepConfig{GraphsPerCell: 2, Seed: 1998}.Normalize()
	var insts []*gen.Instance
	for _, n := range cfg.Nodes {
		for _, p := range cfg.Paths {
			for i := 0; i < cfg.GraphsPerCell; i++ {
				inst, err := gen.Generate(expr.GraphConfig(cfg.Seed, n, p, i))
				if err != nil {
					t.Fatalf("Generate: %v", err)
				}
				insts = append(insts, inst)
			}
		}
	}
	var ws core.Workspace
	pass := func() {
		for _, inst := range insts {
			if _, err := ws.Schedule(context.Background(), inst.Graph, inst.Arch, core.Options{}); err != nil {
				t.Fatalf("Workspace.Schedule: %v", err)
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	graphs := float64(len(insts))
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / graphs
	allocs := float64(after.Mallocs-before.Mallocs) / graphs
	maxBytes, maxAllocs := 40.0*1024, 250.0
	if raceEnabled {
		// The race runtime may allocate where a normal build does not; give
		// it its own margin.
		maxBytes *= 1.1
		maxAllocs *= 1.1
	}
	t.Logf("%.1f KB and %.0f allocs per graph", bytes/1024, allocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("a recycled workspace allocates %.1f KB and %.0f times per graph, ceilings %.0f KB and %.0f",
			bytes/1024, allocs, maxBytes/1024, maxAllocs)
	}
}
