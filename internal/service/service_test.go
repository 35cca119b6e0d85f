package service

import (
	"context"
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/textio"
)

func mustNew(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return svc
}

func TestNewNegativeBudget(t *testing.T) {
	if _, err := New(Config{Workers: -1}); !errors.Is(err, core.ErrNegativeWorkers) {
		t.Fatalf("negative budget must be rejected with ErrNegativeWorkers; got %v", err)
	}
}

func figure1Problem(t *testing.T) *Problem {
	t.Helper()
	g, a, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	return &Problem{Graph: g, Arch: a}
}

func TestScheduleCacheHit(t *testing.T) {
	svc := mustNew(t, Config{Workers: 2})
	prob := figure1Problem(t)
	first, err := svc.Schedule(context.Background(), prob)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if first.CacheHit {
		t.Fatalf("first request must miss the cache")
	}
	if first.Subgraphs != nil || first.Schedules != nil {
		t.Fatalf("a miss must serve the memoized result, without subgraphs or per-path schedules")
	}
	if first.Workers < 1 || first.Workers > 2 {
		t.Fatalf("granted workers %d outside budget", first.Workers)
	}
	second, err := svc.Schedule(context.Background(), prob)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if !second.CacheHit {
		t.Fatalf("identical request must hit the cache")
	}
	if second.Result != first.Result {
		t.Fatalf("cache hit must return the memoized result")
	}
	if second.Subgraphs != nil || second.Schedules != nil {
		t.Fatalf("a hit must serve the memoized result, without subgraphs or per-path schedules")
	}
	if second.ProblemHash != first.ProblemHash || second.ProblemHash == "" {
		t.Fatalf("problem hashes differ: %q vs %q", first.ProblemHash, second.ProblemHash)
	}
	st := svc.Stats()
	if st.Requests != 2 || st.CacheHits != 1 || st.CacheLen != 1 {
		t.Fatalf("stats unexpected: %+v", st)
	}

	// A different worker wish is still the same problem.
	rebudget := *prob
	rebudget.Options.Workers = 1
	third, err := svc.Schedule(context.Background(), &rebudget)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if !third.CacheHit {
		t.Fatalf("worker count must not change the cache key")
	}

	// Different scheduling options are a different problem.
	ablate := *prob
	ablate.Options.PathSelection = core.SelectFirst
	fourth, err := svc.Schedule(context.Background(), &ablate)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if fourth.CacheHit {
		t.Fatalf("changed options must miss the cache")
	}
}

// TestScheduleStrategyKeysMemo pins the memo-key contract of the strategy
// subsystem: the same problem under two different scheduling strategies is
// two different cache entries (two misses, two hashes), and repeating each
// strategy hits its own entry — cached solutions never cross strategies.
func TestScheduleStrategyKeysMemo(t *testing.T) {
	svc := mustNew(t, Config{Workers: 2})
	cp := figure1Problem(t)
	cp.Options.Strategy = "critical-path"
	tabu := figure1Problem(t)
	tabu.Options.Strategy = "tabu"

	first, err := svc.Schedule(context.Background(), cp)
	if err != nil {
		t.Fatalf("Schedule(critical-path): %v", err)
	}
	second, err := svc.Schedule(context.Background(), tabu)
	if err != nil {
		t.Fatalf("Schedule(tabu): %v", err)
	}
	if first.CacheHit || second.CacheHit {
		t.Fatalf("different strategies must both miss the memo: %v %v", first.CacheHit, second.CacheHit)
	}
	if first.ProblemHash == second.ProblemHash {
		t.Fatalf("strategy must be part of the problem hash; both hashed to %q", first.ProblemHash)
	}
	if st := svc.Stats(); st.CacheMisses != 2 || st.CacheHits != 0 {
		t.Fatalf("want two misses and no hits, got %+v", st)
	}
	for _, p := range []*Problem{cp, tabu} {
		again, err := svc.Schedule(context.Background(), p)
		if err != nil {
			t.Fatalf("Schedule(repeat %s): %v", p.Options.Strategy, err)
		}
		if !again.CacheHit {
			t.Fatalf("repeated %s request must hit its own memo entry", p.Options.Strategy)
		}
	}
	// An unknown strategy is rejected by the core before any tokens or memo
	// slots are touched.
	bogus := figure1Problem(t)
	bogus.Options.Strategy = "branch-and-bound"
	if _, err := svc.Schedule(context.Background(), bogus); !errors.Is(err, core.ErrUnknownStrategy) {
		t.Fatalf("unknown strategy must fail with ErrUnknownStrategy; got %v", err)
	}
}

// TestScheduleMatchesCore pins that the service serves what core.Schedule
// computes, for Figure 1 and for a τ-only edit of it scheduled on the service
// that has memoized the original.
func TestScheduleMatchesCore(t *testing.T) {
	svc := mustNew(t, Config{})
	edited := figure1Problem(t)
	p14, ok := edited.Graph.FindByName("P14")
	if !ok {
		t.Fatalf("Figure 1 has no P14")
	}
	edited.Graph.Process(p14).Exec += 3
	var tables []string
	for _, tc := range []struct {
		name string
		prob *Problem
	}{
		{"Figure 1", figure1Problem(t)},
		{"τ-only edit of the memoized Figure 1", edited},
	} {
		sol, err := svc.Schedule(context.Background(), tc.prob)
		if err != nil {
			t.Fatalf("%s: Schedule: %v", tc.name, err)
		}
		if sol.CacheHit {
			t.Fatalf("%s: want a memo miss", tc.name)
		}
		want, err := core.Schedule(tc.prob.Graph, tc.prob.Arch, core.Options{})
		if err != nil {
			t.Fatalf("%s: core.Schedule: %v", tc.name, err)
		}
		got := textio.EncodeSolution(sol.Result)
		ref := textio.EncodeSolution(want)
		if got.TableText != ref.TableText {
			t.Fatalf("%s: service table differs from core table:\n%s\nvs\n%s", tc.name, got.TableText, ref.TableText)
		}
		if got.DeltaM != ref.DeltaM || got.DeltaMax != ref.DeltaMax {
			t.Fatalf("%s: delays differ: %d/%d vs %d/%d", tc.name, got.DeltaM, got.DeltaMax, ref.DeltaM, ref.DeltaMax)
		}
		tables = append(tables, got.TableText)
	}
	if tables[0] == tables[1] {
		t.Fatalf("the τ edit must change the table, or the test cannot tell a stale memo entry from a fresh run")
	}
}

func TestScheduleValidation(t *testing.T) {
	svc := mustNew(t, Config{})
	if _, err := svc.Schedule(context.Background(), nil); err == nil {
		t.Fatalf("nil problem must be rejected")
	}
	prob := figure1Problem(t)
	prob.Options.Workers = -3
	if _, err := svc.Schedule(context.Background(), prob); !errors.Is(err, core.ErrNegativeWorkers) {
		t.Fatalf("negative workers must be rejected with ErrNegativeWorkers; got %v", err)
	}
}

func TestScheduleCancelled(t *testing.T) {
	svc := mustNew(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Schedule(ctx, figure1Problem(t)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context must abort; got %v", err)
	}
}

func TestScheduleBatch(t *testing.T) {
	svc := mustNew(t, Config{Workers: 3})
	var problems []*Problem
	for seed := int64(1); seed <= 4; seed++ {
		inst, err := gen.Generate(gen.Config{Seed: seed, Nodes: 24, TargetPaths: 4, Processors: 2, Hardware: 1, Buses: 1})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		problems = append(problems, &Problem{Graph: inst.Graph, Arch: inst.Arch})
	}
	sols, err := svc.ScheduleBatch(context.Background(), problems)
	if err != nil {
		t.Fatalf("ScheduleBatch: %v", err)
	}
	if len(sols) != len(problems) {
		t.Fatalf("got %d solutions for %d problems", len(sols), len(problems))
	}
	for i, sol := range sols {
		if sol == nil || sol.Result == nil {
			t.Fatalf("solution %d missing", i)
		}
		if sol.DeltaMax < sol.DeltaM {
			t.Fatalf("solution %d: δmax %d < δM %d", i, sol.DeltaMax, sol.DeltaM)
		}
	}
	// Re-running the batch is served entirely from the memo.
	again, err := svc.ScheduleBatch(context.Background(), problems)
	if err != nil {
		t.Fatalf("ScheduleBatch: %v", err)
	}
	for i, sol := range again {
		if !sol.CacheHit {
			t.Fatalf("batch re-run item %d missed the cache", i)
		}
		if sol.Result != sols[i].Result {
			t.Fatalf("batch re-run item %d returned a different result", i)
		}
	}

	// A failing item reports its index without sinking the others.
	bad := append(append([]*Problem{}, problems...), &Problem{})
	sols, err = svc.ScheduleBatch(context.Background(), bad)
	if err == nil {
		t.Fatalf("batch with nil graph must fail")
	}
	if sols[len(sols)-1] != nil {
		t.Fatalf("failed item must leave a nil slot")
	}
	for i := range problems {
		if sols[i] == nil {
			t.Fatalf("healthy item %d lost to the failing one", i)
		}
	}
}

// TestWorkerBudgetShared pins the budget semantics: concurrent requests
// never hold more tokens than the budget in total, and a request wishing for
// more than the budget is clamped.
func TestWorkerBudgetShared(t *testing.T) {
	svc := mustNew(t, Config{Workers: 2, CacheSize: -1}) // no cache: every request schedules
	prob := figure1Problem(t)
	wish := *prob
	wish.Options.Workers = 64
	sol, err := svc.Schedule(context.Background(), &wish)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if sol.Workers > 2 {
		t.Fatalf("granted %d workers over a budget of 2", sol.Workers)
	}

	// Every request must return all of its tokens.
	if free := len(svc.tokens); free != 2 {
		t.Fatalf("tokens leaked: %d free of 2 after a request", free)
	}

	// Exhaust the budget manually and verify the next request blocks until
	// tokens return (it must not be granted more than what was left).
	granted, err := svc.acquire(context.Background(), 2)
	if err != nil || granted != 2 {
		t.Fatalf("acquire = %d, %v", granted, err)
	}
	done := make(chan *Solution, 1)
	go func() {
		s, err := svc.Schedule(context.Background(), &wish)
		if err != nil {
			t.Errorf("Schedule: %v", err)
			done <- nil
			return
		}
		done <- s
	}()
	select {
	case <-done:
		t.Fatalf("request must block while the budget is exhausted")
	default:
	}
	svc.releaseTokens(granted)
	if sol := <-done; sol != nil && sol.Workers > 2 {
		t.Fatalf("granted %d workers over a budget of 2", sol.Workers)
	}

	// A blocked admission honours cancellation.
	granted, err = svc.acquire(context.Background(), 2)
	if err != nil || granted != 2 {
		t.Fatalf("acquire = %d, %v", granted, err)
	}
	defer svc.releaseTokens(granted)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Schedule(ctx, &wish); !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked admission must honour cancellation; got %v", err)
	}
}

// TestMergePhaseReleasesTokens pins the phase-aware token handling of
// Schedule: when the run enters the sequential merge, the request has
// handed back all but one token (they are observable as free inside the
// merge), it reclaims free tokens for validation, and by completion every
// token is back in the pool.
func TestMergePhaseReleasesTokens(t *testing.T) {
	svc := mustNew(t, Config{Workers: 4, CacheSize: -1})
	base := figure1Problem(t)
	prob := &Problem{Graph: base.Graph, Arch: base.Arch}
	prob.Options.Workers = 4

	// The hook ordering itself is pinned by core's TestSchedulePhasedOrder;
	// here we assert the observable service property: the pool is whole
	// after single and overlapping phased runs.
	if _, err := svc.Schedule(context.Background(), prob); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if free := len(svc.tokens); free != 4 {
		t.Fatalf("tokens leaked: %d free of 4 after the request", free)
	}

	// Concurrent requests under one budget all complete and leave the
	// pool whole even when their merges overlap.
	if _, err := svc.ScheduleBatch(context.Background(), []*Problem{prob, prob, prob}); err != nil {
		t.Fatalf("ScheduleBatch: %v", err)
	}
	if free := len(svc.tokens); free != 4 {
		t.Fatalf("tokens leaked after batch: %d free of 4", free)
	}
}

func TestFromDoc(t *testing.T) {
	g, a, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	doc := textio.EncodeProblem(g, a, core.Options{MaxPaths: 9})
	prob, err := FromDoc(doc)
	if err != nil {
		t.Fatalf("FromDoc: %v", err)
	}
	if prob.Options.MaxPaths != 9 {
		t.Fatalf("options lost in FromDoc: %+v", prob.Options)
	}
	doc.Version = "v9"
	if _, err := FromDoc(doc); err == nil {
		t.Fatalf("unsupported version must be rejected")
	}
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
