package service

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
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
	if _, err := New(Config{Workers: -1}); !errors.Is(err, ErrNegativeWorkers) {
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

	// Different scheduling options are a different problem.
	ablate := *prob
	ablate.Options.PathSelection = core.SelectFirst
	third, err := svc.Schedule(context.Background(), &ablate)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if third.CacheHit {
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
}

func TestScheduleCancelled(t *testing.T) {
	svc := mustNew(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Schedule(ctx, figure1Problem(t)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context must abort; got %v", err)
	}
}

// TestWorkerBudgetShared pins the budget semantics: every request returns
// its token, a miss blocks while the budget is exhausted, and a blocked
// admission honours cancellation.
func TestWorkerBudgetShared(t *testing.T) {
	svc := mustNew(t, Config{Workers: 2, CacheSize: -1}) // no cache: every request schedules
	prob := figure1Problem(t)
	if _, err := svc.Schedule(context.Background(), prob); err != nil {
		t.Fatalf("Schedule: %v", err)
	}

	// Every request must return all of its tokens.
	if free := len(svc.tokens); free != 2 {
		t.Fatalf("tokens leaked: %d free of 2 after a request", free)
	}

	// Exhaust the budget manually and verify the next request blocks until
	// tokens return.
	granted, err := svc.acquire(context.Background(), 2)
	if err != nil || granted != 2 {
		t.Fatalf("acquire = %d, %v", granted, err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := svc.Schedule(context.Background(), prob)
		done <- err
	}()
	// A miss that ran without a token would finish well inside the wait.
	select {
	case <-done:
		t.Fatalf("request must block while the budget is exhausted")
	case <-time.After(20 * time.Millisecond):
	}
	svc.releaseTokens(granted)
	if err := <-done; err != nil {
		t.Fatalf("Schedule: %v", err)
	}

	// A blocked admission honours cancellation.
	granted, err = svc.acquire(context.Background(), 2)
	if err != nil || granted != 2 {
		t.Fatalf("acquire = %d, %v", granted, err)
	}
	defer svc.releaseTokens(granted)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Schedule(ctx, prob); !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked admission must honour cancellation; got %v", err)
	}
}

// probeCtx is a context whose Err calls probe first. core checks the context
// before every path of the path phase, at every step of the merge and once
// before validation, so probe runs inside a scheduling run, on the goroutines
// that do its work.
type probeCtx struct {
	context.Context
	probe func()
}

func (c probeCtx) Err() error {
	c.probe()
	return c.Context.Err()
}

// peakCallers returns a probe that counts the goroutines inside it at once,
// and a function that reads the peak. Each call sleeps briefly, so callers
// running at the same time are inside together.
func peakCallers() (probe func(), peak func() int64) {
	var in, top atomic.Int64
	probe = func() {
		n := in.Add(1)
		for p := top.Load(); n > p && !top.CompareAndSwap(p, n); p = top.Load() {
		}
		time.Sleep(20 * time.Microsecond)
		in.Add(-1)
	}
	return probe, top.Load
}

// TestMissHoldsOneToken pins the one-token rule of Schedule: a lone miss on
// a four-token service holds exactly one token from its path phase to the
// start of its validation and runs on one goroutine, and every token is back
// in the pool after single and overlapping misses.
func TestMissHoldsOneToken(t *testing.T) {
	const budget = 4
	svc := mustNew(t, Config{Workers: budget, CacheSize: -1})
	inst, err := gen.Generate(gen.RandomConfig(rand.New(rand.NewSource(5)), 80, 18))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	prob := &Problem{Graph: inst.Graph, Arch: inst.Arch}

	var mu sync.Mutex
	lo, hi, samples := budget, 0, 0
	callers, peak := peakCallers()
	ctx := probeCtx{Context: context.Background(), probe: func() {
		lent := budget - len(svc.tokens)
		mu.Lock()
		lo, hi, samples = min(lo, lent), max(hi, lent), samples+1
		mu.Unlock()
		callers()
	}}
	if _, err := svc.Schedule(ctx, prob); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if samples == 0 || lo != 1 || hi != 1 {
		t.Fatalf("a lone miss held %d to %d tokens over %d samples, want exactly 1", lo, hi, samples)
	}
	if got := peak(); got != 1 {
		t.Fatalf("a lone miss ran on %d goroutines at once, want 1", got)
	}
	if free := len(svc.tokens); free != budget {
		t.Fatalf("tokens leaked: %d free of %d after the request", free, budget)
	}

	// Concurrent misses under one budget all complete and leave the pool
	// whole.
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = svc.Schedule(context.Background(), prob)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent miss %d: %v", i, err)
		}
	}
	if free := len(svc.tokens); free != budget {
		t.Fatalf("tokens leaked after concurrent misses: %d free of %d", free, budget)
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
