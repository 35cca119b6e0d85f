package service

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/gen"
)

func sweepConfig() expr.SweepConfig {
	cfg := expr.GoldenSweep()
	cfg.ShardIndex, cfg.ShardCount = 0, 2
	return cfg
}

// TestSweepShardMatchesInProcess pins the service path against the direct
// expr run: the budgeted service execution returns the exact per-graph
// results of expr.RunSweepShardStream.
func TestSweepShardMatchesInProcess(t *testing.T) {
	svc := mustNew(t, Config{Workers: 2})
	cfg := sweepConfig()
	sol, err := svc.SweepShard(context.Background(), cfg, nil)
	if err != nil {
		t.Fatalf("SweepShard: %v", err)
	}
	want, err := expr.RunSweepShardStream(context.Background(), cfg, nil)
	if err != nil {
		t.Fatalf("RunSweepShardStream: %v", err)
	}
	if !reflect.DeepEqual(zeroShardTimes(sol.Shard), zeroShardTimes(want)) {
		t.Fatalf("service shard differs from in-process shard:\n%+v\nvs\n%+v", sol.Shard, want)
	}
	if sol.Workers < 1 || sol.Workers > 2 {
		t.Fatalf("granted workers %d outside budget", sol.Workers)
	}
}

func zeroShardTimes(sh *expr.ShardResult) *expr.ShardResult {
	out := *sh
	out.Results = append([]expr.GraphResult(nil), sh.Results...)
	for i := range out.Results {
		out.Results[i].MergeNs = 0
		out.Results[i].PathSchedNs = 0
	}
	return &out
}

// TestSweepShardValidation covers the request validation: negative workers
// and out-of-range shard coordinates are rejected before any work.
func TestSweepShardValidation(t *testing.T) {
	svc := mustNew(t, Config{})
	cfg := sweepConfig()
	cfg.Workers = -1
	if _, err := svc.SweepShard(context.Background(), cfg, nil); !errors.Is(err, core.ErrNegativeWorkers) {
		t.Fatalf("negative workers must be rejected with ErrNegativeWorkers; got %v", err)
	}
	cfg = sweepConfig()
	cfg.ShardIndex = 5
	if _, err := svc.SweepShard(context.Background(), cfg, nil); err == nil {
		t.Fatalf("out-of-range shard index must be rejected")
	}
}

// TestSweepShardCancelled checks that a cancelled context aborts the shard
// request with ctx.Err().
func TestSweepShardCancelled(t *testing.T) {
	svc := mustNew(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.SweepShard(ctx, sweepConfig(), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context must abort; got %v", err)
	}
}

// TestSweepShardConcurrent fans every shard of a sweep concurrently through
// one service: the shared worker budget admits them all and the merged cells
// equal the single-process run (exercised under -race by CI).
func TestSweepShardConcurrent(t *testing.T) {
	svc := mustNew(t, Config{Workers: 2})
	cfg := expr.GoldenSweep()
	const count = 3
	shards := make([]*expr.ShardResult, count)
	errs := make([]error, count)
	var wg sync.WaitGroup
	for i := 0; i < count; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cfg
			c.ShardIndex, c.ShardCount = i, count
			sol, err := svc.SweepShard(context.Background(), c, nil)
			if err != nil {
				errs[i] = err
				return
			}
			shards[i] = sol.Shard
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	cells, err := expr.MergeCells(cfg, shards)
	if err != nil {
		t.Fatalf("MergeCells: %v", err)
	}
	want, err := expr.RunSweep(cfg)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if !reflect.DeepEqual(expr.ZeroTimes(cells), expr.ZeroTimes(want)) {
		t.Fatalf("concurrently sharded cells differ from single-process run")
	}
}

// TestSweepGraphRunsOnOneGoroutine pins that a sweep shard holds the
// service's budget: a shard granted one token schedules its graphs on one
// goroutine, whatever its options.workers asks for.
func TestSweepGraphRunsOnOneGoroutine(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1})
	cfg := expr.SweepConfig{Nodes: []int{60}, Paths: []int{18}, GraphsPerCell: 3, Seed: 5,
		Workers: 1, Options: core.Options{Workers: 8}}
	callers, peak := peakCallers()
	sol, err := svc.SweepShard(probeCtx{Context: context.Background(), probe: callers}, cfg, nil)
	if err != nil {
		t.Fatalf("SweepShard: %v", err)
	}
	if got := len(sol.Shard.Results); got != 3 {
		t.Fatalf("shard covers %d graphs, want 3", got)
	}
	if got := peak(); got != 1 {
		t.Fatalf("%d goroutines scheduled at once on a one-token service, want 1", got)
	}
}

// TestSweepShardAllocs pins that sweep shards and memo misses borrow their
// workspaces from one pool, core's. It runs on one P with the collector
// off, so the pool hands back what it was given. On a service that has run
// the golden sweep once, a second run of it allocates per graph no more
// than generating the graph plus 10 KB for a warm workspace's run: 6.5 KB
// over generation measured, against 58 KB when every shard warmed fresh
// workspaces of its own. A miss of one of the sweep's graphs sent right
// after the sweep schedules in the sweep's workspace: 164 KB measured (102
// KB once the codec's pooled buffers have grown too), against 365-428 KB
// when misses drew from a pool of the service's own.
func TestSweepShardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates where a normal build does not")
	}
	const warmKB, missCeilingKB = 10, 180
	svc := mustNew(t, Config{Workers: 1})
	cfg := expr.GoldenSweep()
	keys := cfg.ShardGraphs()
	inst, err := gen.Generate(expr.GraphConfig(cfg.Seed, 80, 12, 0))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	miss := &Problem{Graph: inst.Graph, Arch: inst.Arch}
	kb := func(fn func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / 1024
	}
	sweep := func() {
		if _, err := svc.SweepShard(context.Background(), cfg, nil); err != nil {
			t.Fatalf("SweepShard: %v", err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	genKB := kb(func() {
		for _, k := range keys {
			if _, err := gen.Generate(expr.GraphConfig(cfg.Seed, k.Nodes, k.Paths, k.Index)); err != nil {
				t.Fatalf("Generate: %v", err)
			}
		}
	}) / float64(len(keys))
	sweep()
	sweepKB := kb(sweep) / float64(len(keys))
	missKB := kb(func() {
		if _, err := svc.Schedule(context.Background(), miss); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
	})
	t.Logf("a warm sweep graph allocates %.1f KB, %.1f KB of them generating it; the miss after the sweep %.1f KB", sweepKB, genKB, missKB)
	if sweepKB > genKB+warmKB {
		t.Errorf("a sweep graph allocates %.1f KB, more than generating it (%.1f KB) and %d KB for a warm workspace", sweepKB, genKB, warmKB)
	}
	if missKB > missCeilingKB {
		t.Errorf("the miss after the sweep allocates %.1f KB, ceiling %d KB", missKB, missCeilingKB)
	}
}
