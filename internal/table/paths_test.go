package table_test

import (
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/cpg"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/table"
)

// diamond builds a finalized diamond graph on one processing element (P1
// decides C, P2 on the true branch, P3 on the false branch, P4 joins), its
// architecture and its two alternative paths.
func diamond(t *testing.T) (*cpg.Graph, *arch.Architecture, []*cpg.Path, map[string]cpg.ProcID, cond.Cond) {
	t.Helper()
	a := arch.New()
	pe := a.AddProcessor("pe1", 1)
	a.AddBus("bus", true)
	g := cpg.New("diamond")
	p1 := g.AddProcess("P1", 2, pe)
	p2 := g.AddProcess("P2", 3, pe)
	p3 := g.AddProcess("P3", 4, pe)
	p4 := g.AddProcess("P4", 1, pe)
	c := g.AddCondition("C", p1)
	g.AddCondEdge(p1, p2, c, true)
	g.AddCondEdge(p1, p3, c, false)
	g.AddEdge(p2, p4)
	g.AddEdge(p3, p4)
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	paths, err := g.AlternativePaths(0)
	if err != nil {
		t.Fatalf("AlternativePaths: %v", err)
	}
	if len(paths) != 2 {
		t.Fatalf("expected 2 paths, got %d", len(paths))
	}
	return g, a, paths, map[string]cpg.ProcID{"P1": p1, "P2": p2, "P3": p3, "P4": p4}, c
}

// mustPlace places the activation time of the named process under col.
func mustPlace(t *testing.T, tbl *table.Table, ids map[string]cpg.ProcID, proc string, col cond.Cube, start int64) {
	t.Helper()
	if err := tbl.Place(sched.ProcKey(ids[proc]), col, start); err != nil {
		t.Fatalf("Place %s: %v", proc, err)
	}
}

// checkAll returns every finding on tbl: the row checks of Validate, then the
// per-path checks of the re-enactment in package sim, path by path.
func checkAll(t *testing.T, g *cpg.Graph, a *arch.Architecture, paths []*cpg.Path, tbl *table.Table) []table.Violation {
	t.Helper()
	out := tbl.Validate(g)
	for _, p := range paths {
		tr, err := sim.Run(g, a, tbl, p)
		if err != nil {
			t.Fatalf("Run on path %v: %v", p.Label, err)
		}
		out = append(out, tr.Violations...)
	}
	return out
}

// TestValidateCondRows: a broadcast row for C with a single unconditional
// activation time passes the row checks and is clean on both paths.
func TestValidateCondRows(t *testing.T) {
	g, a, paths, ids, c := diamond(t)
	cT := cond.MustCube(cond.Lit{Cond: c, Val: true})
	cF := cond.MustCube(cond.Lit{Cond: c, Val: false})
	tbl := table.New(g.NumProcs())
	mustPlace(t, tbl, ids, "P1", cond.True(), 0)
	mustPlace(t, tbl, ids, "P2", cT, 2)
	mustPlace(t, tbl, ids, "P3", cF, 2)
	mustPlace(t, tbl, ids, "P4", cT, 5)
	mustPlace(t, tbl, ids, "P4", cF, 6)
	if err := tbl.Place(sched.CondKey(c), cond.True(), 2); err != nil {
		t.Fatalf("Place broadcast: %v", err)
	}
	if v := checkAll(t, g, a, paths, tbl); len(v) != 0 {
		t.Fatalf("broadcast row should validate: %v", v)
	}
}

// TestValidateRequirement3Coverage places P3, active only on path !C, in
// column C alone, which never applies on !C: path !C has a requirement-3
// finding for P3, and the row check flags the column against P3's guard.
func TestValidateRequirement3Coverage(t *testing.T) {
	g, a, paths, ids, c := diamond(t)
	cT := cond.MustCube(cond.Lit{Cond: c, Val: true})
	tbl := table.New(g.NumProcs())
	mustPlace(t, tbl, ids, "P1", cond.True(), 0)
	mustPlace(t, tbl, ids, "P2", cT, 2)
	mustPlace(t, tbl, ids, "P3", cT, 2) // wrong column: never fires on !C
	mustPlace(t, tbl, ids, "P4", cond.True(), 6)
	want := []table.Violation{
		{Kind: table.Requirement1, Key: sched.ProcKey(ids["P3"]),
			Text: "P3: requirement 1: column C does not imply guard !C"},
		{Kind: table.Requirement3, Path: cond.MustCube(cond.Lit{Cond: c, Val: false}), Key: sched.ProcKey(ids["P3"]),
			Text: "path !C, P3: requirement 3: no applicable activation time"},
	}
	if got := checkAll(t, g, a, paths, tbl); !slices.Equal(got, want) {
		t.Fatalf("findings %v, want %v", got, want)
	}
}
