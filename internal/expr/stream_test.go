package expr

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// zeroShardTimes clears the run-dependent wall-clock fields so shard results from
// separate runs can be compared for determinism.
func zeroShardTimes(sh *ShardResult) *ShardResult {
	out := &ShardResult{ShardIndex: sh.ShardIndex, ShardCount: sh.ShardCount, Results: append([]GraphResult(nil), sh.Results...)}
	for i := range out.Results {
		out.Results[i].MergeNs = 0
		out.Results[i].PathSchedNs = 0
	}
	return out
}

// TestRunSweepShardStreamMatchesUnary pins the streaming contract: the yields
// of a streamed shard are exactly the entries of its final ShardResult, and a
// result assembled from the yields alone is identical to the unary one — for
// sequential and parallel workers.
func TestRunSweepShardStreamMatchesUnary(t *testing.T) {
	cfg := GoldenSweep()
	cfg.ShardIndex, cfg.ShardCount = 0, 2
	want, err := RunSweepShardContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunSweepShardContext: %v", err)
	}
	for _, workers := range []int{1, 4} {
		c := cfg
		c.Workers = workers
		got := map[GraphKey]GraphResult{}
		sh, err := RunSweepShardStream(context.Background(), c, func(res GraphResult) error {
			if _, dup := got[res.Key()]; dup {
				t.Errorf("workers=%d: graph %+v yielded twice", workers, res.Key())
			}
			got[res.Key()] = res
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: RunSweepShardStream: %v", workers, err)
		}
		if !reflect.DeepEqual(zeroShardTimes(sh), zeroShardTimes(want)) {
			t.Errorf("workers=%d: streamed ShardResult differs from unary", workers)
		}
		asm, err := cfg.AssembleShardResult(got)
		if err != nil {
			t.Fatalf("workers=%d: AssembleShardResult: %v", workers, err)
		}
		if !reflect.DeepEqual(zeroShardTimes(asm), zeroShardTimes(sh)) {
			t.Errorf("workers=%d: assembled-from-yields result differs from streamed", workers)
		}
	}
}

// TestRunSweepShardStreamYieldError pins that a failing yield aborts the
// shard with the yield's error (wrapped), the way a streaming server stops
// computing when its client hangs up.
func TestRunSweepShardStreamYieldError(t *testing.T) {
	cfg := GoldenSweep()
	boom := errors.New("client went away")
	yields := 0
	_, err := RunSweepShardStream(context.Background(), cfg, func(GraphResult) error {
		yields++
		if yields == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("RunSweepShardStream error = %v, want wrapped %v", err, boom)
	}
}

// TestAssembleShardResultAccounting pins the strict coverage of assembly:
// gaps, foreign extras and mis-filed entries are all loud errors.
func TestAssembleShardResultAccounting(t *testing.T) {
	cfg := GoldenSweep()
	cfg.ShardIndex, cfg.ShardCount = 0, 2
	full, err := RunSweepShardContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunSweepShardContext: %v", err)
	}
	complete := map[GraphKey]GraphResult{}
	for _, res := range full.Results {
		complete[res.Key()] = res
	}

	gap := map[GraphKey]GraphResult{}
	for k, v := range complete {
		gap[k] = v
	}
	for k := range gap {
		delete(gap, k)
		break
	}
	if _, err := cfg.AssembleShardResult(gap); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("gap: err = %v, want 'missing'", err)
	}

	extra := map[GraphKey]GraphResult{}
	for k, v := range complete {
		extra[k] = v
	}
	extra[GraphKey{Nodes: 999, Paths: 10, Index: 0}] = GraphResult{Nodes: 999, Paths: 10}
	if _, err := cfg.AssembleShardResult(extra); err == nil || !strings.Contains(err.Error(), "foreign") {
		t.Errorf("foreign extra: err = %v, want 'foreign'", err)
	}

	misfiled := map[GraphKey]GraphResult{}
	for k, v := range complete {
		misfiled[k] = v
	}
	wrongKey := full.Results[0].Key()
	wrong := full.Results[0]
	wrong.Index += 7
	misfiled[wrongKey] = wrong
	if _, err := cfg.AssembleShardResult(misfiled); err == nil || !strings.Contains(err.Error(), "carries coordinates") {
		t.Errorf("misfiled entry: err = %v, want 'carries coordinates'", err)
	}
}
