package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/cpg"
	"repro/internal/listsched"
	"repro/internal/table"
)

// render canonicalises a result for byte-identity comparison.
func render(r *Result) string { return r.Table.Render(table.RenderOptions{}) }

// TestScheduleWarmByteIdentical pins the warm-start contract on the
// three-path cross problem, for every strategy: after a τ edit to
// a process active on only one path, ScheduleWarm must reuse the untouched
// paths yet render the exact table a cold run of the edited problem renders.
func TestScheduleWarmByteIdentical(t *testing.T) {
	for _, name := range listsched.StrategyNames() {
		t.Run(name, func(t *testing.T) {
			opt := Options{
				Strategy:       name,
				StrategyParams: listsched.StrategyParams{TabuIterations: 6, TabuNeighbors: 6},
				Workers:        1,
			}
			g1, a1 := crossProblem(t)
			prev, err := Schedule(g1, a1, opt)
			if err != nil {
				t.Fatalf("cold Schedule: %v", err)
			}

			// T2 is active only on the C&K path; edit its execution time on an
			// independently built instance of the same problem.
			g2, a2 := crossProblem(t)
			id, ok := g2.FindByName("T2")
			if !ok {
				t.Fatalf("T2 not found")
			}
			g2.Process(id).Exec += 4

			cold, err := Schedule(g2, a2, opt)
			if err != nil {
				t.Fatalf("cold Schedule (edited): %v", err)
			}
			warm, err := ScheduleWarm(context.Background(), prev, g2, a2, opt, []cpg.ProcID{id})
			if err != nil {
				t.Fatalf("ScheduleWarm: %v", err)
			}
			if warm.Stats.WarmReusedPaths == 0 {
				t.Fatalf("warm run reused no paths; T2 is inactive on two of three")
			}
			if warm.Stats.WarmReusedPaths >= len(warm.Paths) {
				t.Fatalf("warm run reused all %d paths; the dirty one must be rescheduled", len(warm.Paths))
			}
			if got, want := render(warm), render(cold); got != want {
				t.Fatalf("warm table differs from cold:\nwarm:\n%s\ncold:\n%s", got, want)
			}
			if warm.DeltaM != cold.DeltaM || warm.DeltaMax != cold.DeltaMax {
				t.Fatalf("delays differ: warm (%d,%d) cold (%d,%d)",
					warm.DeltaM, warm.DeltaMax, cold.DeltaM, cold.DeltaMax)
			}
			if !warm.Deterministic() {
				t.Fatalf("warm result has violations: %v", warm.Violations)
			}
		})
	}
}

// TestScheduleWarmFallsBackOnMismatchedPrev feeds ScheduleWarm a previous
// result from a structurally different problem: the plan must detect the
// mismatch, reuse nothing, and still deliver the cold result.
func TestScheduleWarmFallsBackOnMismatchedPrev(t *testing.T) {
	gd, ad, _ := diamondProblem(t)
	prev, err := Schedule(gd, ad, Options{Workers: 1})
	if err != nil {
		t.Fatalf("Schedule(diamond): %v", err)
	}
	g, a := crossProblem(t)
	cold, err := Schedule(g, a, Options{Workers: 1})
	if err != nil {
		t.Fatalf("Schedule(cross): %v", err)
	}
	warm, err := ScheduleWarm(context.Background(), prev, g, a, Options{Workers: 1}, nil)
	if err != nil {
		t.Fatalf("ScheduleWarm: %v", err)
	}
	if warm.Stats.WarmReusedPaths != 0 {
		t.Fatalf("mismatched prev must reuse nothing, reused %d paths", warm.Stats.WarmReusedPaths)
	}
	if got, want := render(warm), render(cold); got != want {
		t.Fatalf("fallback table differs from cold:\nwarm:\n%s\ncold:\n%s", got, want)
	}
}

// TestScheduleWarmConcurrentSharedPrev warm-starts several runs at once from
// one previous result, the way concurrent requests share a memoized result:
// every run reads the reused per-path schedules, so under -race this pins
// that nothing writes a schedule once a result holds it.
func TestScheduleWarmConcurrentSharedPrev(t *testing.T) {
	opt := Options{Workers: 2}
	g1, a1 := crossProblem(t)
	prev, err := Schedule(g1, a1, opt)
	if err != nil {
		t.Fatalf("cold Schedule: %v", err)
	}
	edited := func() (*cpg.Graph, *arch.Architecture, cpg.ProcID) {
		g, a := crossProblem(t)
		id, ok := g.FindByName("T2")
		if !ok {
			t.Fatalf("T2 not found")
		}
		g.Process(id).Exec += 4
		return g, a, id
	}
	gc, ac, _ := edited()
	cold, err := Schedule(gc, ac, opt)
	if err != nil {
		t.Fatalf("cold Schedule (edited): %v", err)
	}
	const runs = 4
	type problem struct {
		g  *cpg.Graph
		a  *arch.Architecture
		id cpg.ProcID
	}
	problems := make([]problem, runs)
	for i := range problems {
		problems[i].g, problems[i].a, problems[i].id = edited()
	}
	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i, p := range problems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = ScheduleWarm(context.Background(), prev, p.g, p.a, opt, []cpg.ProcID{p.id})
		}()
	}
	wg.Wait()
	for i, warm := range results {
		if errs[i] != nil {
			t.Fatalf("ScheduleWarm %d: %v", i, errs[i])
		}
		if warm.Stats.WarmReusedPaths == 0 {
			t.Fatalf("warm run %d reused no paths", i)
		}
		if got, want := render(warm), render(cold); got != want {
			t.Fatalf("warm run %d differs from cold:\nwarm:\n%s\ncold:\n%s", i, got, want)
		}
	}
}
