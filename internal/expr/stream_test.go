package expr

import (
	"context"
	"errors"
	"reflect"
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
// of a streamed shard are exactly the entries of its final ShardResult, each
// once, and that result is identical to the one a run without a yield
// returns — for sequential and parallel workers.
func TestRunSweepShardStreamMatchesUnary(t *testing.T) {
	cfg := GoldenSweep()
	cfg.ShardIndex, cfg.ShardCount = 0, 2
	want, err := RunSweepShardStream(context.Background(), cfg, nil)
	if err != nil {
		t.Fatalf("RunSweepShardStream: %v", err)
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
			t.Errorf("workers=%d: streamed ShardResult differs from the one without a yield", workers)
		}
		if len(got) != len(sh.Results) {
			t.Errorf("workers=%d: %d graphs yielded, shard has %d", workers, len(got), len(sh.Results))
		}
		for _, res := range sh.Results {
			if got[res.Key()] != res {
				t.Errorf("workers=%d: graph %+v yielded as %+v", workers, res, got[res.Key()])
			}
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
