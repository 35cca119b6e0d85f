package cpg_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cpg"
	"repro/internal/expr"
	"repro/internal/gen"
)

// TestSubgraphAllocs pins the allocations of extracting an active subgraph
// to a fixed count whatever the size of the graph: the subgraph, its flags,
// one backing array for the topological order and the adjacency, the
// adjacency offsets and the decided conditions.
func TestSubgraphAllocs(t *testing.T) {
	const want = 5
	fig1G, _, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	graphs := []*cpg.Graph{fig1G}
	for i, nodes := range []int{30, 120, 480} {
		inst, err := gen.Generate(gen.RandomConfig(rand.New(rand.NewSource(int64(300+i))), nodes, 8))
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		graphs = append(graphs, inst.Graph)
	}
	for _, g := range graphs {
		paths, err := g.AlternativePaths(0)
		if err != nil {
			t.Fatalf("AlternativePaths: %v", err)
		}
		for _, p := range paths {
			if n := testing.AllocsPerRun(20, func() { g.Subgraph(p) }); n != want {
				t.Fatalf("%s (%d processes): Subgraph allocates %.0f times, want %d",
					g.Name(), g.NumProcs(), n, want)
			}
		}
	}
}

// TestSubgraphAdjacency checks the compressed adjacency of every path of a
// generated graph against the graph's edges: Preds and Succs list the ends
// of the active edges in edge insertion order, and nothing for an inactive
// process. An edge is active when both its ends are and, for a conditional
// edge, the path's label gives its condition the edge's value.
func TestSubgraphAdjacency(t *testing.T) {
	inst, err := gen.Generate(gen.RandomConfig(rand.New(rand.NewSource(77)), 120, 16))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	g := inst.Graph
	paths, err := g.AlternativePaths(0)
	if err != nil {
		t.Fatalf("AlternativePaths: %v", err)
	}
	for _, p := range paths {
		sub := g.Subgraph(p)
		active := func(e *cpg.Edge) bool {
			if !p.IsActive(e.From) || !p.IsActive(e.To) {
				return false
			}
			v, ok := p.Label.Value(e.Cond)
			return !e.HasCond || ok && v == e.CondVal
		}
		for id := cpg.ProcID(0); int(id) < g.NumProcs(); id++ {
			var preds, succs []cpg.ProcID
			for _, e := range g.Edges() {
				if e.To == id && active(e) {
					preds = append(preds, e.From)
				}
				if e.From == id && active(e) {
					succs = append(succs, e.To)
				}
			}
			if !slices.Equal(sub.Preds(id), preds) || !slices.Equal(sub.Succs(id), succs) {
				t.Fatalf("path %s, process %d: preds %v succs %v, want %v %v",
					p.Label, id, sub.Preds(id), sub.Succs(id), preds, succs)
			}
			if (len(preds) > 0 || len(succs) > 0) && !sub.Active(id) {
				t.Fatalf("path %s: inactive process %d has active edges", p.Label, id)
			}
		}
	}
}
