package sim_test

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/sim"
)

// TestWorstCaseSubgraphsAllocs pins the allocations of re-enacting every
// path: a fixed overhead for the result, the traces and the scratch, and
// nothing per path or per activation, whatever the size of the graph. The
// bound holds when the scratch pool is empty too (a cold scratch makes about
// 19 of them); a pool hit only lowers the count.
func TestWorstCaseSubgraphsAllocs(t *testing.T) {
	limit := 24.0
	if raceEnabled {
		// The race runtime may allocate where a normal build does not.
		limit = 30
	}
	fig1G, fig1A, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	type instance struct {
		name string
		g    *cpg.Graph
		a    *arch.Architecture
	}
	insts := []instance{{"figure1", fig1G, fig1A}}
	for i, c := range []struct{ nodes, paths int }{{60, 10}, {120, 32}} {
		inst, err := gen.Generate(gen.RandomConfig(rand.New(rand.NewSource(int64(500+i))), c.nodes, c.paths))
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		insts = append(insts, instance{inst.Graph.Name(), inst.Graph, inst.Arch})
	}
	for _, in := range insts {
		res, err := core.Schedule(in.g, in.a, core.Options{})
		if err != nil {
			t.Fatalf("%s: Schedule: %v", in.name, err)
		}
		if !res.Deterministic() {
			t.Fatalf("%s: table not deterministic", in.name)
		}
		activations := 0
		for _, sub := range res.Subgraphs {
			activations += sub.NumActive()
		}
		n := testing.AllocsPerRun(20, func() {
			if _, err := sim.WorstCaseSubgraphs(in.a, res.Table, res.Subgraphs, 1); err != nil {
				t.Fatalf("WorstCaseSubgraphs: %v", err)
			}
		})
		t.Logf("%s: %.0f allocs for %d paths, %d activations", in.name, n, len(res.Subgraphs), activations)
		if n > limit {
			t.Errorf("%s: WorstCaseSubgraphs allocates %.0f times for %d paths, want <= %.0f",
				in.name, n, len(res.Subgraphs), limit)
		}
	}
}
