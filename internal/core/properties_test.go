package core

import (
	"math/rand"
	"testing"

	"repro/internal/cond"
	"repro/internal/gen"
	"repro/internal/sched"
	"repro/internal/table"
)

// TestPropertyTablesDeterministicOnRandomGraphs is a property-style test of
// the full pipeline on small random instances: every generated table must
// satisfy requirements 1-4 and keep the longest path at δM.
func TestPropertyTablesDeterministicOnRandomGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("property test over random instances skipped in -short mode")
	}
	r := rand.New(rand.NewSource(5150))
	for i := 0; i < 8; i++ {
		cfg := gen.Config{
			Seed:        r.Int63(),
			Nodes:       30 + r.Intn(30),
			TargetPaths: []int{2, 3, 4, 6, 8}[r.Intn(5)],
			Processors:  1 + r.Intn(4),
			Hardware:    1,
			Buses:       1 + r.Intn(2),
			CondTime:    1 + int64(r.Intn(2)),
		}
		inst, err := gen.Generate(cfg)
		if err != nil {
			t.Fatalf("Generate(%+v): %v", cfg, err)
		}
		res, err := Schedule(inst.Graph, inst.Arch, Options{})
		if err != nil {
			t.Fatalf("Schedule(%+v): %v", cfg, err)
		}
		if !res.Deterministic() {
			t.Fatalf("instance %d (seed %d) not deterministic:\n%v", i, cfg.Seed, res.Violations)
		}
		if res.DeltaMax < res.DeltaM {
			t.Fatalf("instance %d: δmax < δM", i)
		}
	}
}

// TestRequirement2HoldsRowByRow checks the mutual-exclusion requirement
// directly on the rows of a generated table (in addition to the validator).
func TestRequirement2HoldsRowByRow(t *testing.T) {
	g, a := wideProblem(t, 3)
	res, err := Schedule(g, a, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	for _, k := range res.Table.Keys() {
		row := res.Table.Row(k)
		for i := 0; i < len(row); i++ {
			for j := i + 1; j < len(row); j++ {
				if row[i].Start != row[j].Start && row[i].Expr.Compatible(row[j].Expr) {
					t.Fatalf("row %v: entries %v and %v violate requirement 2", k, row[i], row[j])
				}
			}
		}
	}
}

// TestColumnExpressionsUseOnlyDecidedConditions checks that no column mixes a
// condition with the conditions of a disjoint subtree (a symptom of broken
// bookkeeping during merging): every column expression must be satisfiable on
// at least one alternative path.
func TestColumnExpressionsUseOnlyDecidedConditions(t *testing.T) {
	g, a := wideProblem(t, 2)
	res, err := Schedule(g, a, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	paths, err := g.AlternativePaths(0)
	if err != nil {
		t.Fatalf("paths: %v", err)
	}
	for _, col := range res.Table.Columns() {
		ok := false
		for _, p := range paths {
			if p.Label.Implies(col) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("column %v is not satisfied by any alternative path", col)
		}
	}
}

// TestBroadcastRowsComeAfterDeciders checks that the activation time of every
// condition broadcast is no earlier than the termination of its disjunction
// process on every path where it applies.
func TestBroadcastRowsComeAfterDeciders(t *testing.T) {
	g, a := crossProblem(t)
	res, err := Schedule(g, a, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	paths, _ := g.AlternativePaths(0)
	for _, cd := range g.Conditions() {
		row := res.Table.Row(sched.CondKey(cd.ID))
		if len(row) == 0 {
			continue
		}
		for _, p := range paths {
			if !p.IsActive(cd.Decider) {
				continue
			}
			bcast := res.Table.AppendApplicable(nil, sched.CondKey(cd.ID), p.Label)
			dec := res.Table.AppendApplicable(nil, sched.ProcKey(cd.Decider), p.Label)
			if len(bcast) == 0 || len(dec) == 0 {
				t.Fatalf("missing coverage for condition %s on path %v", cd.Name, p.Label)
			}
			decEnd := dec[0].Start + g.Process(cd.Decider).Exec
			if bcast[0].Start < decEnd {
				t.Fatalf("broadcast of %s at %d before its disjunction process ends at %d (path %v)",
					cd.Name, bcast[0].Start, decEnd, p.Label)
			}
		}
	}
}

// TestTableRowsCoverExactlyTheActiveProcesses verifies requirement 1 from the
// opposite direction: a process never has an applicable activation time on a
// path where its guard is false.
func TestTableRowsCoverExactlyTheActiveProcesses(t *testing.T) {
	g, a := crossProblem(t)
	res, err := Schedule(g, a, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	paths, _ := g.AlternativePaths(0)
	for _, p := range paths {
		for _, proc := range g.Procs() {
			if proc.IsDummy() {
				continue
			}
			app := res.Table.AppendApplicable(nil, sched.ProcKey(proc.ID), p.Label)
			if p.IsActive(proc.ID) && len(app) == 0 {
				t.Fatalf("active process %s has no activation time on %v", proc.Name, p.Label)
			}
			if !p.IsActive(proc.ID) && len(app) != 0 {
				t.Fatalf("inactive process %s would be activated on %v", proc.Name, p.Label)
			}
		}
	}
}

// TestIncreasePercentZeroDelta covers the degenerate δM == 0 case.
func TestIncreasePercentZeroDelta(t *testing.T) {
	r := &Result{DeltaM: 0, DeltaMax: 0}
	if r.IncreasePercent() != 0 {
		t.Fatalf("IncreasePercent with δM=0 must be 0")
	}
}

// TestRowNameRendering covers both process and broadcast rows.
func TestRowNameRendering(t *testing.T) {
	g, a, _ := diamondProblem(t)
	res, err := Schedule(g, a, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.RowName(sched.ProcKey(1)) == "" {
		t.Fatalf("process row name empty")
	}
	if res.RowName(sched.CondKey(0)) != "C" {
		t.Fatalf("broadcast row name = %q, want C", res.RowName(sched.CondKey(0)))
	}
	// Rendering with empty options must not panic and must contain data.
	if out := res.Table.Render(table.RenderOptions{}); len(out) == 0 {
		t.Fatalf("empty rendering")
	}
	_ = cond.True()
}
