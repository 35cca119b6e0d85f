package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/table"
)

// gridProblem generates the (nodes, paths) problem of seed s of the grid
// scan: one source per seed, drawn for nodes 60, 80 and 120 and, inside
// that, paths 10, 12, 18, 24 and 32, in that order.
func gridProblem(t *testing.T, s int64, nodes, paths int) *gen.Instance {
	t.Helper()
	r := rand.New(rand.NewSource(s))
	for _, n := range []int{60, 80, 120} {
		for _, p := range []int{10, 12, 18, 24, 32} {
			cfg := gen.RandomConfig(r, n, p)
			if n != nodes || p != paths {
				continue
			}
			inst, err := gen.Generate(cfg)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			return inst
		}
	}
	t.Fatalf("the grid has no cell of %d nodes and %d paths", nodes, paths)
	return nil
}

// TestMergeNotConvergedIsTyped pins the typed failure of a merge that runs to
// its safety bound: grid seed 159, 80 nodes and 10 paths, under
// ConflictDelayToLatest. The paper's rule schedules the same problem.
func TestMergeNotConvergedIsTyped(t *testing.T) {
	inst := gridProblem(t, 159, 80, 10)
	if _, err := Schedule(inst.Graph, inst.Arch, Options{ConflictPolicy: ConflictDelayToLatest}); !errors.Is(err, ErrNotConverged) {
		t.Fatalf("a merge that reaches its safety bound must fail with ErrNotConverged; got %v", err)
	}
	if _, err := Schedule(inst.Graph, inst.Arch, Options{}); err != nil {
		t.Fatalf("under Theorem 2: %v", err)
	}
}

func TestScheduleContextPreCancelled(t *testing.T) {
	inst, err := gen.Generate(gen.Config{Seed: 3, Nodes: 60, TargetPaths: 10, Processors: 3, Hardware: 1, Buses: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ScheduleContext(ctx, inst.Graph, inst.Arch, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context must abort with context.Canceled; got %v", err)
	}
}

// TestScheduleContextCancelPromptly pins the acceptance property of the
// cancellation plumbing: aborting a large merge returns in well under the
// uncancelled runtime, because the context is checked between back-steps.
// The uncancelled run must take at least 10 ms for a tenth of it to be
// measurable, so the graph doubles in size from 250 nodes until it does.
func TestScheduleContextCancelPromptly(t *testing.T) {
	var inst *gen.Instance
	// measure times one uncancelled run (which also warms every cache).
	measure := func() time.Duration {
		t.Helper()
		start := time.Now()
		if _, err := ScheduleContext(context.Background(), inst.Graph, inst.Arch, Options{}); err != nil {
			t.Fatalf("uncancelled run: %v", err)
		}
		return time.Since(start)
	}
	var full time.Duration
	for nodes := 250; full < 10*time.Millisecond; nodes *= 2 {
		if nodes > 4000 {
			t.Fatalf("the uncancelled run of a %d-node graph takes only %v", nodes/2, full)
		}
		var err error
		inst, err = gen.Generate(gen.Config{Seed: 9, Nodes: nodes, TargetPaths: 48, Processors: 6, Hardware: 1, Buses: 2})
		if err != nil {
			t.Fatalf("Generate(%d nodes): %v", nodes, err)
		}
		full = measure()
		t.Logf("%d nodes: the uncancelled run takes %v", nodes, full)
	}

	// Allow a few attempts: on a loaded 1-CPU CI runner a single back-step
	// plus scheduler stalls can spuriously stretch one measurement, and a
	// slow uncancelled run (cold caches, a loaded host) can give the next
	// run a deadline it beats. A context that is never checked fails every
	// attempt.
	for attempt := 1; ; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), full/10)
		start := time.Now()
		_, err := ScheduleContext(ctx, inst.Graph, inst.Arch, Options{})
		elapsed := time.Since(start)
		cancel()
		switch {
		case err == nil:
			t.Logf("attempt %d finished in %v, before its %v deadline; timing the uncancelled run again", attempt, elapsed, full/10)
			full = measure()
		case !errors.Is(err, context.DeadlineExceeded):
			t.Fatalf("timed-out run must return context.DeadlineExceeded; got %v after %v", err, elapsed)
		case elapsed < full/2:
			return
		}
		if attempt == 3 {
			t.Fatalf("cancellation not prompt: the last of 3 attempts returned %v after %v, uncancelled run takes %v", err, elapsed, full)
		}
	}
}

// TestSchedulePhasedOrder pins the phase hook contract: merge is announced
// exactly once after the path phase, then validate exactly once, each
// offered 1, and what the hook returns changes nothing: a hook that returns 0
// or 99 leaves the result as a run without a hook gives it.
func TestSchedulePhasedOrder(t *testing.T) {
	inst, err := gen.Generate(gen.Config{Seed: 3, Nodes: 30, TargetPaths: 4, Processors: 2, Hardware: 1, Buses: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ref, err := Schedule(inst.Graph, inst.Arch, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	for _, ret := range []int{0, 99} {
		var phases []string
		res, err := SchedulePhased(context.Background(), inst.Graph, inst.Arch, Options{},
			func(phase string, want int) int {
				phases = append(phases, phase)
				if want != 1 {
					t.Errorf("phase %s offered %d, want 1", phase, want)
				}
				return ret
			})
		if err != nil {
			t.Fatalf("SchedulePhased: %v", err)
		}
		if len(phases) != 2 || phases[0] != PhaseMerge || phases[1] != PhaseValidate {
			t.Fatalf("phase order %v, want [merge validate]", phases)
		}
		checkSameResult(t, fmt.Sprintf("hook returning %d", ret), res, ref)
	}
}

// TestScheduleWarmPhasedRunsCold checks that ScheduleWarmPhased is
// SchedulePhased: handed a prev that carries every path's schedule and a
// dirty list naming no process, it still schedules every path
// (Stats.WarmReusedPaths is 0) and returns the table, δM and δmax a plain
// run returns. The benchmark's tracer calls it with memoized results.
func TestScheduleWarmPhasedRunsCold(t *testing.T) {
	inst, err := gen.Generate(gen.Config{Seed: 3, Nodes: 30, TargetPaths: 4, Processors: 2, Hardware: 1, Buses: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	opt := Options{}
	prev, err := Schedule(inst.Graph, inst.Arch, opt)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if len(prev.Schedules) != len(prev.Paths) || len(prev.Paths) < 2 {
		t.Fatalf("prev carries %d schedules for %d paths, want one per path and at least 2", len(prev.Schedules), len(prev.Paths))
	}
	ref, err := SchedulePhased(context.Background(), inst.Graph, inst.Arch, opt, nil)
	if err != nil {
		t.Fatalf("SchedulePhased: %v", err)
	}
	res, err := ScheduleWarmPhased(context.Background(), prev, inst.Graph, inst.Arch, opt, nil, nil)
	if err != nil {
		t.Fatalf("ScheduleWarmPhased: %v", err)
	}
	if res.Stats.WarmReusedPaths != 0 {
		t.Fatalf("ScheduleWarmPhased reused %d of %d paths, want 0", res.Stats.WarmReusedPaths, len(res.Paths))
	}
	checkSameResult(t, "ScheduleWarmPhased", res, ref)
}

// checkSameResult compares the rendered table, δM and δmax of got with want.
func checkSameResult(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.DeltaM != want.DeltaM || got.DeltaMax != want.DeltaMax {
		t.Fatalf("%s: δM/δmax %d/%d, want %d/%d", name, got.DeltaM, got.DeltaMax, want.DeltaM, want.DeltaMax)
	}
	ropt := table.RenderOptions{Namer: want.Graph.CondName, RowName: want.RowName}
	if g, w := got.Table.Render(ropt), want.Table.Render(ropt); g != w {
		t.Fatalf("%s: table differs:\n%s\nwant:\n%s", name, g, w)
	}
}
