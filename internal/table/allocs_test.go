package table

import (
	"testing"

	"repro/internal/cond"
	"repro/internal/sched"
)

// TestConflictsAllocsRegression pins the allocation behavior of the
// conflict probe used by the merging algorithm: when a placement does not
// conflict (the overwhelmingly common case), Conflicts must not allocate at
// all, and a conflicting placement allocates only the result slice.
func TestConflictsAllocsRegression(t *testing.T) {
	tbl := New(16)
	k := sched.ProcKey(1)
	c0 := cond.MustCube(cond.Lit{Cond: 0, Val: true})
	notC0 := cond.MustCube(cond.Lit{Cond: 0, Val: false})
	c0c1 := cond.MustCube(cond.Lit{Cond: 0, Val: true}, cond.Lit{Cond: 1, Val: true})
	if err := tbl.Place(k, c0, 10); err != nil {
		t.Fatalf("Place: %v", err)
	}
	if err := tbl.Place(k, notC0, 20); err != nil {
		t.Fatalf("Place: %v", err)
	}

	clean := testing.AllocsPerRun(200, func() {
		if got := tbl.Conflicts(k, notC0, 20); len(got) != 0 {
			t.Fatalf("unexpected conflicts: %v", got)
		}
	})
	if clean != 0 {
		t.Errorf("Conflicts (no conflict) allocates %.0f times per run, want 0", clean)
	}

	conflicting := testing.AllocsPerRun(200, func() {
		if got := tbl.Conflicts(k, c0c1, 30); len(got) != 1 {
			t.Fatalf("expected one conflict, got %v", got)
		}
	})
	if conflicting > 1 {
		t.Errorf("Conflicts (one conflict) allocates %.0f times per run, want <= 1", conflicting)
	}
}
