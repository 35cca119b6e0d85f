package gen_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/textio"
)

// TestPaperSweepGraphsHash pins every graph of the paper's sweep (seed 1998)
// as a sha256 over, graph by graph: the hash of its canonical problem
// document; each process's name, guard text and disjunction and conjunction
// flags; each edge with its identifier; the topological order; and the labels
// of the alternative paths. The constants were captured while graphs were
// still built with one allocation per process, edge and guard, so building
// them in chunks changed no graph. Under -short the first 4 graphs of every
// cell are hashed.
func TestPaperSweepGraphsHash(t *testing.T) {
	cfg := expr.PaperSweep()
	graphs, want := cfg.GraphsPerCell, "ca2bf549bfc384be6d8738d1433cc9d5738f4d9e48fbcdf9613d71bba2a3f5bd"
	if testing.Short() {
		graphs, want = 4, "9e62d8932f79253369bf450318037c92c23c53617f8cbb3f9b15d339d74d157b"
	}
	h := sha256.New()
	for _, n := range cfg.Nodes {
		for _, p := range cfg.Paths {
			for i := range graphs {
				inst, err := gen.Generate(expr.GraphConfig(cfg.Seed, n, p, i))
				if err != nil {
					t.Fatalf("Generate(%d nodes, %d paths, graph %d): %v", n, p, i, err)
				}
				hashGraph(t, h, inst)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("graphs of the paper sweep hash to %s, want %s", got, want)
	}
}

// hashGraph writes what TestPaperSweepGraphsHash pins of one instance to h.
func hashGraph(t *testing.T, h io.Writer, inst *gen.Instance) {
	t.Helper()
	g := inst.Graph
	doc, err := textio.ProblemHash(textio.EncodeProblem(g, inst.Arch, core.Options{}))
	if err != nil {
		t.Fatalf("ProblemHash: %v", err)
	}
	fmt.Fprintln(h, doc)
	for _, p := range g.Procs() {
		fmt.Fprintln(h, p.Name, g.Guard(p.ID).Format(g.CondName), g.IsDisjunction(p.ID), g.IsConjunction(p.ID))
	}
	for _, e := range g.Edges() {
		fmt.Fprintln(h, e.ID, e.From, e.To, e.HasCond, e.Cond, e.CondVal)
	}
	all := make([]bool, g.NumProcs())
	for i := range all {
		all[i] = true
	}
	fmt.Fprintln(h, g.Subgraph(&cpg.Path{Active: all}).ActiveProcs())
	paths, err := g.AlternativePaths(0)
	if err != nil {
		t.Fatalf("AlternativePaths: %v", err)
	}
	for _, p := range paths {
		fmt.Fprintln(h, p.Label.Format(g.CondName))
	}
}

// TestGenerateAllocs pins the allocations of generating one graph of the
// paper's sweep, graph 0 of the 120-node, 32-path cell (seed 1998: 265
// processes, 350 edges, 6 conditions): 417 measured. Building and finalizing
// the graph allocates per graph and per generated name, not per process,
// edge or guard, so an allocation that creeps back into either shows up
// here.
func TestGenerateAllocs(t *testing.T) {
	ceiling := 440.0
	if raceEnabled {
		// The race runtime may allocate where a normal build does not.
		ceiling *= 1.1
	}
	cfg := expr.GraphConfig(1998, 120, 32, 0)
	inst, err := gen.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	n := testing.AllocsPerRun(50, func() {
		if _, err := gen.Generate(cfg); err != nil {
			t.Fatalf("Generate: %v", err)
		}
	})
	t.Logf("Generate(%s): %.0f allocs, %d processes, %d edges, %d conditions",
		inst.Graph.Name(), n, inst.Graph.NumProcs(), len(inst.Graph.Edges()), inst.Graph.NumConds())
	if n > ceiling {
		t.Errorf("Generate(%s) allocates %.0f times, ceiling %.0f", inst.Graph.Name(), n, ceiling)
	}
}
