package expr

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestShardAssignmentStableAndBalanced pins the shard partition like a file
// format: it is a pure function of the graph coordinates (seed-independent),
// every graph lands in exactly one shard, and no shard of a 3-way split of
// the default sweep is empty.
func TestShardAssignmentStableAndBalanced(t *testing.T) {
	cfg := SweepConfig{GraphsPerCell: 4}.Normalize()
	for _, count := range []int{1, 2, 3, 5} {
		total := 0
		for i := 0; i < count; i++ {
			c := cfg
			c.ShardIndex, c.ShardCount = i, count
			n := len(c.shardJobs())
			if count <= 3 && n == 0 {
				t.Errorf("shard %d/%d of the default sweep is empty", i, count)
			}
			total += n
		}
		if want := len(cfg.allJobs()); total != want {
			t.Errorf("shards %d-way cover %d graphs, want %d", count, total, want)
		}
	}
	if a, b := shardOf(60, 10, 0, 3), shardOf(60, 10, 0, 3); a != b {
		t.Fatalf("shardOf not deterministic: %d vs %d", a, b)
	}
}

// TestMergeCellsShardEquivalence is the heart of the distributed sweep: for
// 1, 2 and 3 shards, running every shard separately and merging reproduces
// the single-process cells byte for byte (CSV-compared, wall-clock zeroed),
// for several worker counts.
func TestMergeCellsShardEquivalence(t *testing.T) {
	cfg := GoldenSweep()
	base, err := RunSweep(cfg)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	baseCSV := cellsCSV(t, base)
	for _, count := range []int{1, 2, 3} {
		for _, workers := range []int{1, 4} {
			var shards []*ShardResult
			for i := 0; i < count; i++ {
				c := cfg
				c.ShardIndex, c.ShardCount = i, count
				c.Workers = workers
				sh, err := RunSweepShardStream(context.Background(), c, nil)
				if err != nil {
					t.Fatalf("RunSweepShardStream(%d/%d): %v", i, count, err)
				}
				if sh.ShardIndex != i || sh.ShardCount != count {
					t.Fatalf("shard coordinates drifted: got %d/%d want %d/%d", sh.ShardIndex, sh.ShardCount, i, count)
				}
				shards = append(shards, sh)
			}
			cells, err := MergeCells(cfg, shards)
			if err != nil {
				t.Fatalf("MergeCells(%d shards): %v", count, err)
			}
			if got := cellsCSV(t, cells); got != baseCSV {
				t.Errorf("merged CSV differs from single-process run (%d shards, workers=%d):\n--- single\n%s\n--- merged\n%s",
					count, workers, baseCSV, got)
			}
		}
	}
}

func cellsCSV(t *testing.T, cells []Cell) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSweepCSV(&buf, ZeroTimes(cells)); err != nil {
		t.Fatalf("WriteSweepCSV: %v", err)
	}
	return buf.String()
}

// TestGoldenSweepCSV pins the golden sweep output byte-for-byte against
// testdata/sweep_golden.csv (regenerated by scripts/gengolden), for the
// single-process run and for in-process sharded runs.
func TestGoldenSweepCSV(t *testing.T) {
	golden, err := os.ReadFile("../../testdata/sweep_golden.csv")
	if err != nil {
		t.Fatalf("reading golden sweep CSV (regenerate with `go run ./scripts/gengolden`): %v", err)
	}
	cfg := GoldenSweep()
	cells, err := RunSweep(cfg)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if got := cellsCSV(t, cells); got != string(golden) {
		t.Errorf("single-process sweep CSV differs from testdata/sweep_golden.csv:\n--- golden\n%s\n--- got\n%s", golden, got)
	}
	for _, count := range []int{2, 3} {
		var shards []*ShardResult
		for i := 0; i < count; i++ {
			c := cfg
			c.ShardIndex, c.ShardCount = i, count
			sh, err := RunSweepShardStream(context.Background(), c, nil)
			if err != nil {
				t.Fatalf("RunSweepShardStream(%d/%d): %v", i, count, err)
			}
			shards = append(shards, sh)
		}
		cells, err := MergeCells(cfg, shards)
		if err != nil {
			t.Fatalf("MergeCells(%d shards): %v", count, err)
		}
		if got := cellsCSV(t, cells); got != string(golden) {
			t.Errorf("%d-shard sweep CSV differs from testdata/sweep_golden.csv:\n--- golden\n%s\n--- got\n%s", count, golden, got)
		}
	}
}

// TestMergeCellsAccounting checks the coverage accounting: gaps, duplicates
// and out-of-sweep results are all detected instead of silently merged.
func TestMergeCellsAccounting(t *testing.T) {
	cfg := GoldenSweep()
	shard0 := mustShard(t, cfg, 0, 2)
	shard1 := mustShard(t, cfg, 1, 2)

	if _, err := MergeCells(cfg, []*ShardResult{shard0}); err == nil || !strings.Contains(err.Error(), "not covered") {
		t.Errorf("missing shard must be detected; got %v", err)
	}
	if _, err := MergeCells(cfg, []*ShardResult{shard0, shard1, shard1}); err == nil || !strings.Contains(err.Error(), "covered twice") {
		t.Errorf("duplicate coverage must be detected; got %v", err)
	}
	rogue := &ShardResult{ShardIndex: 0, ShardCount: 2, Results: []GraphResult{{Nodes: 999, Paths: 999, Index: 0}}}
	if _, err := MergeCells(cfg, []*ShardResult{shard0, shard1, rogue}); err == nil || !strings.Contains(err.Error(), "outside the sweep") {
		t.Errorf("out-of-sweep result must be detected; got %v", err)
	}
	if _, err := MergeCells(cfg, []*ShardResult{shard0, nil}); err == nil {
		t.Errorf("nil shard must be rejected")
	}
}

func mustShard(t *testing.T, cfg SweepConfig, index, count int) *ShardResult {
	t.Helper()
	cfg.ShardIndex, cfg.ShardCount = index, count
	sh, err := RunSweepShardStream(context.Background(), cfg, nil)
	if err != nil {
		t.Fatalf("RunSweepShardStream(%d/%d): %v", index, count, err)
	}
	return sh
}

// TestShardValidation covers the shard coordinate checks and RunSweep's
// refusal to silently run a single shard as if it were the whole sweep.
func TestShardValidation(t *testing.T) {
	cfg := GoldenSweep()
	for _, tc := range []struct{ index, count int }{{-1, 2}, {2, 2}, {5, 3}} {
		c := cfg
		c.ShardIndex, c.ShardCount = tc.index, tc.count
		if _, err := RunSweepShardStream(context.Background(), c, nil); err == nil {
			t.Errorf("shard %d/%d must be rejected", tc.index, tc.count)
		}
	}
	c := cfg
	c.ShardIndex, c.ShardCount = 0, 2
	if _, err := RunSweep(c); err == nil || !strings.Contains(err.Error(), "whole sweeps") {
		t.Errorf("RunSweep of a single shard must be rejected; got %v", err)
	}
	// Duplicate grid coordinates cannot be represented in the per-graph
	// accounting; they must fail with a clear message, not a bogus
	// "covered twice" sharding error.
	dup := cfg
	dup.Nodes = []int{60, 60}
	if _, err := RunSweep(dup); err == nil || !strings.Contains(err.Error(), "duplicate graph size") {
		t.Errorf("duplicate nodes must be rejected clearly; got %v", err)
	}
	dup = cfg
	dup.Paths = []int{10, 10}
	if _, err := MergeCells(dup, nil); err == nil || !strings.Contains(err.Error(), "duplicate path count") {
		t.Errorf("duplicate paths must be rejected clearly; got %v", err)
	}
}

// TestSeedSentinel pins the seed normalization contract: 0 is the "unset"
// sentinel and becomes DefaultSeed, every other seed (negative ones and
// math.MinInt64 included) is kept, and Normalize is idempotent.
func TestSeedSentinel(t *testing.T) {
	if got := (SweepConfig{}).Normalize().Seed; got != DefaultSeed {
		t.Errorf("Normalize(Seed=0).Seed = %d, want DefaultSeed %d", got, DefaultSeed)
	}
	for _, seed := range []int64{1, -1, DefaultSeed, math.MinInt64, math.MaxInt64} {
		once := SweepConfig{Seed: seed}.Normalize()
		if once.Seed != seed {
			t.Errorf("Normalize(Seed=%d).Seed = %d", seed, once.Seed)
		}
		if twice := once.Normalize(); twice.Seed != once.Seed {
			t.Errorf("Normalize not idempotent on seed %d: %d then %d", seed, once.Seed, twice.Seed)
		}
	}
	if cellSeed(math.MinInt64, 60, 10, 0) == cellSeed(DefaultSeed, 60, 10, 0) {
		t.Errorf("seed math.MinInt64 must not collide with DefaultSeed derivation")
	}
}

// TestRunSweepShardCancelled checks that a cancelled context aborts a shard
// run promptly with ctx.Err() rather than an arbitrary per-graph error.
func TestRunSweepShardCancelled(t *testing.T) {
	cfg := GoldenSweep()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := RunSweepShardStream(ctx, cfg, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled shard run must return context.Canceled; got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled shard run took %v, want prompt abort", elapsed)
	}
}
