package table

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/cpg"
	"repro/internal/sched"
)

func lit(c int, v bool) cond.Lit { return cond.Lit{Cond: cond.Cond(c), Val: v} }

func TestPlaceAndLookup(t *testing.T) {
	tbl := New(16)
	k := sched.ProcKey(1)
	if err := tbl.Place(k, cond.True(), 5); err != nil {
		t.Fatalf("Place: %v", err)
	}
	if err := tbl.Place(k, cond.True(), 5); err != nil {
		t.Fatalf("idempotent Place must not fail: %v", err)
	}
	if err := tbl.Place(k, cond.True(), 7); err == nil {
		t.Fatalf("placing a different time under the same expression must fail")
	}
	if row := tbl.RowView(k); len(row) != 1 || row[0] != (Entry{Expr: cond.True(), Start: 5}) {
		t.Fatalf("RowView = %v, want the one entry at 5 under true", row)
	}
	if len(tbl.KeysView()) != 1 || tbl.NumEntries() != 1 {
		t.Fatalf("rows/entries wrong: %d %d", len(tbl.KeysView()), tbl.NumEntries())
	}
}

func TestRowSortedByStart(t *testing.T) {
	tbl := New(16)
	k := sched.ProcKey(2)
	mustPlace(t, tbl, k, cond.MustCube(lit(0, true)), 20)
	mustPlace(t, tbl, k, cond.MustCube(lit(0, false)), 10)
	row := tbl.Row(k)
	if len(row) != 2 || row[0].Start != 10 || row[1].Start != 20 {
		t.Fatalf("row not sorted by start: %v", row)
	}
}

func mustPlace(t *testing.T, tbl *Table, k sched.Key, e cond.Cube, start int64) {
	t.Helper()
	if err := tbl.Place(k, e, start); err != nil {
		t.Fatalf("Place(%v, %v, %d): %v", k, e, start, err)
	}
}

func TestApplicable(t *testing.T) {
	tbl := New(16)
	k := sched.ProcKey(3)
	d := cond.MustCube(lit(0, true))
	dc := cond.MustCube(lit(0, true), lit(1, true))
	mustPlace(t, tbl, k, d, 12)
	mustPlace(t, tbl, k, dc.MustWith(2, false), 30)
	full := cond.MustCube(lit(0, true), lit(1, true), lit(2, true))
	app := tbl.AppendApplicable(nil, k, full)
	if len(app) != 1 || app[0].Start != 12 {
		t.Fatalf("AppendApplicable = %v, want the D entry only", app)
	}
	full2 := cond.MustCube(lit(0, true), lit(1, true), lit(2, false))
	if got := tbl.AppendApplicable(app[:0], k, full2); len(got) != 2 {
		t.Fatalf("AppendApplicable under D&C&!K = %v, want both entries", got)
	}
	notD := cond.MustCube(lit(0, false))
	if got := tbl.AppendApplicable(nil, k, notD); len(got) != 0 {
		t.Fatalf("AppendApplicable under !D = %v, want none", got)
	}
}

func TestConflicts(t *testing.T) {
	tbl := New(16)
	k := sched.ProcKey(4)
	dck := cond.MustCube(lit(0, true), lit(1, true), lit(2, true))
	mustPlace(t, tbl, k, dck, 26)
	// A compatible expression (D) with a different time conflicts.
	if got := tbl.Conflicts(k, cond.MustCube(lit(0, true)), 34); len(got) != 1 {
		t.Fatalf("expected a conflict, got %v", got)
	}
	// The same time never conflicts.
	if got := tbl.Conflicts(k, cond.MustCube(lit(0, true)), 26); len(got) != 0 {
		t.Fatalf("same activation time must not conflict, got %v", got)
	}
	// A mutually exclusive expression does not conflict.
	notD := cond.MustCube(lit(0, false))
	if got := tbl.Conflicts(k, notD, 34); len(got) != 0 {
		t.Fatalf("mutually exclusive columns must not conflict, got %v", got)
	}
	// Conflict error message mentions both columns.
	c := Conflict{Key: k, New: Entry{Expr: notD, Start: 1}, Existing: Entry{Expr: dck, Start: 2}}
	if !strings.Contains(c.Error(), "conflicting activation times") {
		t.Fatalf("Conflict.Error() = %q", c.Error())
	}
}

func TestColumnsDeduplicatedAndOrdered(t *testing.T) {
	tbl := New(16)
	d := cond.MustCube(lit(0, true))
	dc := cond.MustCube(lit(0, true), lit(1, false))
	mustPlace(t, tbl, sched.ProcKey(1), cond.True(), 0)
	mustPlace(t, tbl, sched.ProcKey(2), d, 3)
	mustPlace(t, tbl, sched.ProcKey(3), d, 9)
	mustPlace(t, tbl, sched.ProcKey(3), dc, 11)
	cols := tbl.Columns()
	if len(cols) != 3 {
		t.Fatalf("Columns = %v, want 3 distinct", cols)
	}
	if !cols[0].IsTrue() {
		t.Fatalf("true column must come first, got %v", cols)
	}
	if cols[1].Len() != 1 || cols[2].Len() != 2 {
		t.Fatalf("columns must be ordered by number of literals: %v", cols)
	}
}

func TestKeysInInsertionOrder(t *testing.T) {
	tbl := New(16)
	mustPlace(t, tbl, sched.ProcKey(9), cond.True(), 1)
	mustPlace(t, tbl, sched.ProcKey(9), cond.MustCube(lit(0, true)), 1)
	mustPlace(t, tbl, sched.CondKey(0), cond.True(), 4)
	keys := tbl.Keys()
	if len(keys) != 2 || keys[0] != sched.ProcKey(9) || keys[1] != sched.CondKey(0) {
		t.Fatalf("Keys = %v", keys)
	}
}

// validationFixture builds a finalized diamond graph (P1 decides C, P2 on the
// true branch, P3 on the false branch, P4 joins).
func validationFixture(t *testing.T) (*cpg.Graph, map[string]cpg.ProcID, cond.Cond) {
	t.Helper()
	a := arch.New()
	pe := a.AddProcessor("pe1", 1)
	a.AddBus("bus", true)
	g := cpg.New("fixture")
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
	return g, map[string]cpg.ProcID{"P1": p1, "P2": p2, "P3": p3, "P4": p4}, c
}

func goodTable(t *testing.T, ids map[string]cpg.ProcID, c cond.Cond) *Table {
	t.Helper()
	tbl := New(16)
	cTrue := cond.MustCube(cond.Lit{Cond: c, Val: true})
	cFalse := cond.MustCube(cond.Lit{Cond: c, Val: false})
	mustPlace(t, tbl, sched.ProcKey(ids["P1"]), cond.True(), 0)
	mustPlace(t, tbl, sched.ProcKey(ids["P2"]), cTrue, 2)
	mustPlace(t, tbl, sched.ProcKey(ids["P3"]), cFalse, 2)
	mustPlace(t, tbl, sched.ProcKey(ids["P4"]), cTrue, 5)
	mustPlace(t, tbl, sched.ProcKey(ids["P4"]), cFalse, 6)
	return tbl
}

func TestValidateCleanTable(t *testing.T) {
	g, ids, c := validationFixture(t)
	tbl := goodTable(t, ids, c)
	if v := tbl.Validate(g); len(v) != 0 {
		t.Fatalf("clean table reported violations: %v", v)
	}
}

func TestValidateRequirement1(t *testing.T) {
	g, ids, c := validationFixture(t)
	tbl := goodTable(t, ids, c)
	// P2's guard is C, but an activation time under "true" does not imply it.
	mustPlace(t, tbl, sched.ProcKey(ids["P2"]), cond.True(), 2)
	v := tbl.Validate(g)
	want := Violation{Kind: Requirement1, Key: sched.ProcKey(ids["P2"]),
		Text: "P2: requirement 1: column true does not imply guard C"}
	if len(v) != 1 || v[0] != want {
		t.Fatalf("Validate = %v, want %v", v, want)
	}
}

func TestValidateRequirement2(t *testing.T) {
	g, ids, c := validationFixture(t)
	tbl := goodTable(t, ids, c)
	// Two compatible columns with different activation times for P1.
	mustPlace(t, tbl, sched.ProcKey(ids["P1"]), cond.MustCube(cond.Lit{Cond: c, Val: true}), 9)
	v := tbl.Validate(g)
	want := Violation{Kind: Requirement2, Key: sched.ProcKey(ids["P1"]),
		Text: "P1: requirement 2: times 0 (true) and 9 (C) are not mutually exclusive"}
	if len(v) != 1 || v[0] != want {
		t.Fatalf("Validate = %v, want %v", v, want)
	}
}

func TestRender(t *testing.T) {
	g, ids, c := validationFixture(t)
	tbl := goodTable(t, ids, c)
	mustPlace(t, tbl, sched.CondKey(c), cond.True(), 2)
	out := tbl.Render(RenderOptions{
		Namer: g.CondName,
		RowName: func(k sched.Key) string {
			if k.IsCond {
				return g.CondName(k.Cond)
			}
			return g.Process(k.Proc).Name
		},
	})
	for _, want := range []string{"process", "true", "C", "!C", "P1", "P4", "| 0", "5", "6"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	// Default options path.
	out2 := tbl.Render(RenderOptions{})
	if !strings.Contains(out2, "proc(") {
		t.Fatalf("default rendering unexpected:\n%s", out2)
	}
}
