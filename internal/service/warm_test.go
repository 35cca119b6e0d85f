package service

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/cpg"
	"repro/internal/expr"
	"repro/internal/table"
)

// perturbableProc returns a non-dummy process of g that is inactive on at
// least one alternative path, so a τ edit to it leaves some path schedules
// reusable.
func perturbableProc(t *testing.T, g *cpg.Graph) cpg.ProcID {
	t.Helper()
	paths, err := g.AlternativePaths(0)
	if err != nil {
		t.Fatalf("AlternativePaths: %v", err)
	}
	for _, p := range g.Procs() {
		if p.IsDummy() {
			continue
		}
		for _, path := range paths {
			if !path.IsActive(p.ID) {
				return p.ID
			}
		}
	}
	t.Fatalf("no conditionally active process found")
	return cpg.NoProc
}

func renderTable(tbl *table.Table) string {
	return tbl.Render(table.RenderOptions{})
}

// TestScheduleWarmStartTauEdit pins the warm-start path end to end: a second
// request differing from a memoized one only in one process's execution time
// must warm-start (reusing the unaffected paths) and still produce the exact
// table a cold run of the edited problem produces.
func TestScheduleWarmStartTauEdit(t *testing.T) {
	svc := mustNew(t, Config{Workers: 2})
	ctx := context.Background()

	base := figure1Problem(t)
	first, err := svc.Schedule(ctx, base)
	if err != nil {
		t.Fatalf("Schedule(base): %v", err)
	}
	if first.CacheHit || first.WarmStart {
		t.Fatalf("first request must be a cold miss, got hit=%v warm=%v", first.CacheHit, first.WarmStart)
	}

	// Independent instance of the same problem with one τ time edited.
	edited := figure1Problem(t)
	dirty := perturbableProc(t, edited.Graph)
	edited.Graph.Process(dirty).Exec += 3
	warm, err := svc.Schedule(ctx, edited)
	if err != nil {
		t.Fatalf("Schedule(edited): %v", err)
	}
	if warm.CacheHit {
		t.Fatalf("edited problem must miss the exact memo")
	}
	if !warm.WarmStart {
		t.Fatalf("τ-only edit must warm-start from the memoized result")
	}
	if warm.Stats.WarmReusedPaths == 0 {
		t.Fatalf("warm run should have reused at least one path schedule")
	}
	if !warm.Deterministic() {
		t.Fatalf("warm result has violations: %v", warm.Violations)
	}
	if st := svc.Stats(); st.WarmStarts != 1 {
		t.Fatalf("WarmStarts = %d, want 1", st.WarmStarts)
	}

	// Byte-identity: a cold run of the edited problem on a fresh service
	// must render the same table and report the same delays.
	coldSvc := mustNew(t, Config{Workers: 2})
	editedAgain := figure1Problem(t)
	editedAgain.Graph.Process(dirty).Exec += 3
	cold, err := coldSvc.Schedule(ctx, editedAgain)
	if err != nil {
		t.Fatalf("Schedule(cold edited): %v", err)
	}
	if cold.WarmStart {
		t.Fatalf("fresh service cannot warm-start")
	}
	if got, want := renderTable(warm.Table), renderTable(cold.Table); got != want {
		t.Fatalf("warm table differs from cold table:\nwarm:\n%s\ncold:\n%s", got, want)
	}
	if warm.DeltaM != cold.DeltaM || warm.DeltaMax != cold.DeltaMax {
		t.Fatalf("delays differ: warm (%d,%d) vs cold (%d,%d)", warm.DeltaM, warm.DeltaMax, cold.DeltaM, cold.DeltaMax)
	}

	// A third request repeating the edit is an exact memo hit, not a rerun.
	editedThird := figure1Problem(t)
	editedThird.Graph.Process(dirty).Exec += 3
	third, err := svc.Schedule(ctx, editedThird)
	if err != nil {
		t.Fatalf("Schedule(edited again): %v", err)
	}
	if !third.CacheHit {
		t.Fatalf("repeated edited problem must hit the exact memo")
	}
}

// TestScheduleWarmStartFallsBackCold pins the fallback rules: diffs beyond τ
// times — a remapping here — must not warm-start, and neither must a τ diff
// wider than the configured bound or a service with warm-start disabled.
func TestScheduleWarmStartFallsBackCold(t *testing.T) {
	ctx := context.Background()

	t.Run("mapping change", func(t *testing.T) {
		svc := mustNew(t, Config{Workers: 2})
		if _, err := svc.Schedule(ctx, figure1Problem(t)); err != nil {
			t.Fatalf("Schedule(base): %v", err)
		}
		remapped := figure1Problem(t)
		// Move one ordinary process to another processor: a structural diff.
		var moved bool
		for _, p := range remapped.Graph.Procs() {
			if p.IsDummy() || p.Kind != cpg.KindOrdinary {
				continue
			}
			for _, pe := range remapped.Arch.PEs() {
				if pe.Kind == arch.KindProcessor && pe.ID != p.PE {
					p.PE = pe.ID
					moved = true
					break
				}
			}
			if moved {
				break
			}
		}
		if !moved {
			t.Fatalf("could not remap any process")
		}
		sol, err := svc.Schedule(ctx, remapped)
		if err != nil {
			t.Fatalf("Schedule(remapped): %v", err)
		}
		if sol.CacheHit || sol.WarmStart {
			t.Fatalf("mapping diff must run cold, got hit=%v warm=%v", sol.CacheHit, sol.WarmStart)
		}
	})

	t.Run("too many dirty processes", func(t *testing.T) {
		svc := mustNew(t, Config{Workers: 2, WarmMaxDirty: 1})
		if _, err := svc.Schedule(ctx, figure1Problem(t)); err != nil {
			t.Fatalf("Schedule(base): %v", err)
		}
		edited := figure1Problem(t)
		n := 0
		for _, p := range edited.Graph.Procs() {
			if p.IsDummy() || n >= 2 {
				continue
			}
			p.Exec += 2
			n++
		}
		sol, err := svc.Schedule(ctx, edited)
		if err != nil {
			t.Fatalf("Schedule(edited): %v", err)
		}
		if sol.WarmStart {
			t.Fatalf("diff wider than WarmMaxDirty must run cold")
		}
	})

	t.Run("disabled", func(t *testing.T) {
		svc := mustNew(t, Config{Workers: 2, WarmMaxDirty: -1})
		if _, err := svc.Schedule(ctx, figure1Problem(t)); err != nil {
			t.Fatalf("Schedule(base): %v", err)
		}
		edited := figure1Problem(t)
		edited.Graph.Process(perturbableProc(t, edited.Graph)).Exec += 3
		sol, err := svc.Schedule(ctx, edited)
		if err != nil {
			t.Fatalf("Schedule(edited): %v", err)
		}
		if sol.WarmStart {
			t.Fatalf("warm-start must stay off when disabled")
		}
	})
}

// TestMaxUsefulWorkersBoundary pins the worker-wish cap at the bitset limit:
// a graph declaring the maximal cond.MaxConds conditions must yield a large
// positive cap, never a shifted-to-zero or negative one.
func TestMaxUsefulWorkersBoundary(t *testing.T) {
	a := arch.New()
	cpu := a.AddProcessor("cpu", 1)
	g := cpg.New("wide")
	p1 := g.AddProcess("A", 2, cpu)
	p2 := g.AddProcess("B", 3, cpu)
	g.AddEdge(p1, p2)
	for i := 0; i < 64; i++ {
		g.AddCondition("", p1)
	}
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if got := maxUsefulWorkers(g); got != 1<<30 {
		t.Fatalf("maxUsefulWorkers(64 conds) = %d, want %d", got, 1<<30)
	}
	small, _, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	if got, want := maxUsefulWorkers(small), 1<<small.NumConds(); got != want {
		t.Fatalf("maxUsefulWorkers(Figure1) = %d, want %d", got, want)
	}
}
