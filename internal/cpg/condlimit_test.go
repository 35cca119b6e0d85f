package cpg

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cond"
)

// chainWithConds builds a two-process chain declaring n conditions (all
// decided by the first process, none driving an edge — legal, and cheap
// enough to probe the declaration limit without 2^n paths).
func chainWithConds(t *testing.T, n int) (*Graph, *arch.Architecture) {
	t.Helper()
	a := arch.New()
	cpu := a.AddProcessor("cpu", 1)
	g := New("limit")
	p1 := g.AddProcess("A", 2, cpu)
	p2 := g.AddProcess("B", 3, cpu)
	g.AddEdge(p1, p2)
	for i := 0; i < n; i++ {
		g.AddCondition("", p1)
	}
	return g, a
}

// TestFinalizeConditionLimitBoundary pins the bitset condition limit at the
// exact boundary: cond.MaxConds conditions (identifiers 0..63 all fit one
// mask) must finalize, and one more must fail loudly with a clear error —
// never wrap into aliasing condition 64 with condition 0.
func TestFinalizeConditionLimitBoundary(t *testing.T) {
	g, a := chainWithConds(t, cond.MaxConds)
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize with exactly %d conditions should succeed: %v", cond.MaxConds, err)
	}
	if got := g.NumConds(); got != cond.MaxConds {
		t.Fatalf("NumConds = %d, want %d", got, cond.MaxConds)
	}

	g2, a2 := chainWithConds(t, cond.MaxConds+1)
	err := g2.Finalize(a2)
	if err == nil {
		t.Fatalf("Finalize with %d conditions must fail", cond.MaxConds+1)
	}
	if !strings.Contains(err.Error(), "bitset") {
		t.Fatalf("limit error should name the bitset algebra, got: %v", err)
	}
}
