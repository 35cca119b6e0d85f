package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/gen"
)

func TestNegativeWorkersRejected(t *testing.T) {
	inst, err := gen.Generate(gen.Config{Seed: 3, Nodes: 20, TargetPaths: 4, Processors: 2, Buses: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	_, err = Schedule(inst.Graph, inst.Arch, Options{Workers: -1})
	if !errors.Is(err, ErrNegativeWorkers) {
		t.Fatalf("Workers=-1 must be rejected with ErrNegativeWorkers; got %v", err)
	}
	// Workers = 0 (GOMAXPROCS) and 1 (sequential) both remain valid.
	for _, w := range []int{0, 1} {
		if _, err := Schedule(inst.Graph, inst.Arch, Options{Workers: w}); err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
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
		// Measure the uncancelled runtime (also warms every cache).
		start := time.Now()
		if _, err := ScheduleContext(context.Background(), inst.Graph, inst.Arch, Options{Workers: 1}); err != nil {
			t.Fatalf("uncancelled run: %v", err)
		}
		full = time.Since(start)
		t.Logf("%d nodes: the uncancelled run takes %v", nodes, full)
	}

	// Allow a few attempts: on a loaded 1-CPU CI runner a single back-step
	// plus scheduler stalls can spuriously stretch one measurement.
	for attempt := 1; ; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), full/10)
		start := time.Now()
		_, err := ScheduleContext(ctx, inst.Graph, inst.Arch, Options{Workers: 1})
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("timed-out run must return context.DeadlineExceeded; got %v after %v", err, elapsed)
		}
		if elapsed < full/2 {
			return
		}
		if attempt == 3 {
			t.Fatalf("cancellation not prompt: aborted after %v on every attempt, uncancelled run takes %v", elapsed, full)
		}
	}
}

// TestSchedulePhasedOrder pins the phase hook contract: merge is announced
// exactly once after the path fan-out, validate exactly once before the
// validation fan-out, and the worker bound returned for the validation
// phase is honoured (the result stays identical for any bound).
func TestSchedulePhasedOrder(t *testing.T) {
	inst, err := gen.Generate(gen.Config{Seed: 3, Nodes: 30, TargetPaths: 4, Processors: 2, Hardware: 1, Buses: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var phases []string
	res, err := SchedulePhased(context.Background(), inst.Graph, inst.Arch, Options{Workers: 4},
		func(phase string, want int) int {
			phases = append(phases, phase)
			if phase == PhaseValidate && want != 4 {
				t.Errorf("validate phase offered %d workers, want 4", want)
			}
			return 1 // force sequential validation; result must not change
		})
	if err != nil {
		t.Fatalf("SchedulePhased: %v", err)
	}
	if len(phases) != 2 || phases[0] != PhaseMerge || phases[1] != PhaseValidate {
		t.Fatalf("phase order %v, want [merge validate]", phases)
	}
	ref, err := Schedule(inst.Graph, inst.Arch, Options{Workers: 1})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.DeltaM != ref.DeltaM || res.DeltaMax != ref.DeltaMax {
		t.Fatalf("phased run changed the result: δ %d/%d vs %d/%d", res.DeltaM, res.DeltaMax, ref.DeltaM, ref.DeltaMax)
	}
}
