package expr

import (
	"context"
	"runtime"
	"testing"
)

// TestSweepWorkerAllocs pins that a sweep worker keeps one workspace for its
// whole share of the shard, whatever the collector does meanwhile. After a
// warm-up run, a one-worker run of the golden sweep on one P collects twice
// after every graph, from the yield, which empties core's sync.Pool each
// time. A graph may allocate at most 150 KB: 93.8 KB measured, 66.1 KB of
// them generating the graph, against 282.6 KB when every graph borrowed its
// own workspace from the pool and so built a fresh one after each pair of
// collections.
func TestSweepWorkerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates where a normal build does not")
	}
	const ceilingKB = 150
	cfg := GoldenSweep()
	cfg.Workers = 1
	collect := func(GraphResult) error {
		runtime.GC()
		runtime.GC()
		return nil
	}
	run := func() {
		if _, err := RunSweepShardStream(context.Background(), cfg, collect); err != nil {
			t.Fatalf("RunSweepShardStream: %v", err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(cfg.ShardSize())
	t.Logf("%.1f KB per graph", kb)
	if kb > ceilingKB {
		t.Errorf("a sweep graph allocates %.1f KB, ceiling %d KB", kb, ceilingKB)
	}
}
