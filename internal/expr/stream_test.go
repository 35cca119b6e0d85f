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

// TestSkipResume is the partial-redispatch contract behind streaming fault
// tolerance: computing k graphs, then re-running the shard with those k in
// Skip, covers exactly the remaining graphs — and the union reassembles into
// the very ShardResult a from-scratch run returns.
func TestSkipResume(t *testing.T) {
	cfg := GoldenSweep()
	cfg.ShardIndex, cfg.ShardCount = 1, 2
	full, err := RunSweepShardContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunSweepShardContext: %v", err)
	}
	if len(full.Results) < 3 {
		t.Fatalf("shard too small for the test: %d graphs", len(full.Results))
	}
	k := len(full.Results) / 2
	got := map[GraphKey]GraphResult{}
	resume := cfg
	for _, res := range full.Results[:k] {
		got[res.Key()] = res
		resume.Skip = append(resume.Skip, res.Key())
	}
	if want := len(full.Results) - k; resume.ShardSize() != want {
		t.Fatalf("ShardSize with %d skipped = %d, want %d", k, resume.ShardSize(), want)
	}
	rest, err := RunSweepShardContext(context.Background(), resume)
	if err != nil {
		t.Fatalf("RunSweepShardContext(resume): %v", err)
	}
	if len(rest.Results) != len(full.Results)-k {
		t.Fatalf("resume computed %d graphs, want %d", len(rest.Results), len(full.Results)-k)
	}
	for _, res := range rest.Results {
		if _, dup := got[res.Key()]; dup {
			t.Fatalf("resume recomputed already-received graph %+v", res.Key())
		}
		got[res.Key()] = res
	}
	asm, err := cfg.AssembleShardResult(got)
	if err != nil {
		t.Fatalf("AssembleShardResult: %v", err)
	}
	if !reflect.DeepEqual(zeroShardTimes(asm), zeroShardTimes(full)) {
		t.Fatal("union of received + resumed graphs differs from the from-scratch shard")
	}
}

// TestSkipValidation pins the loud rejection of malformed skip lists.
func TestSkipValidation(t *testing.T) {
	cfg := GoldenSweep()
	cfg.ShardIndex, cfg.ShardCount = 0, 2
	mine := cfg.ShardGraphs()

	foreign := cfg
	foreign.Skip = []GraphKey{{Nodes: 999, Paths: 10, Index: 0}}
	if _, err := RunSweepShardContext(context.Background(), foreign); err == nil || !strings.Contains(err.Error(), "not a graph of shard") {
		t.Errorf("foreign skip entry: err = %v, want 'not a graph of shard'", err)
	}

	other := cfg
	for _, j := range GoldenSweep().allJobs() {
		if shardOf(j.Nodes, j.Paths, j.Index, 2) == 1 {
			other.Skip = []GraphKey{j}
			break
		}
	}
	if _, err := RunSweepShardContext(context.Background(), other); err == nil || !strings.Contains(err.Error(), "not a graph of shard") {
		t.Errorf("other-shard skip entry: err = %v, want 'not a graph of shard'", err)
	}

	dup := cfg
	dup.Skip = []GraphKey{mine[0], mine[0]}
	if _, err := RunSweepShardContext(context.Background(), dup); err == nil || !strings.Contains(err.Error(), "duplicate skip entry") {
		t.Errorf("duplicate skip entry: err = %v, want 'duplicate skip entry'", err)
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

// TestCompareGraphKeys pins the canonical ordering used everywhere a skip
// list or key set is serialized.
func TestCompareGraphKeys(t *testing.T) {
	a := GraphKey{Nodes: 60, Paths: 10, Index: 1}
	cases := []struct {
		b    GraphKey
		sign int
	}{
		{GraphKey{Nodes: 60, Paths: 10, Index: 1}, 0},
		{GraphKey{Nodes: 80, Paths: 10, Index: 1}, -1},
		{GraphKey{Nodes: 60, Paths: 12, Index: 0}, -1},
		{GraphKey{Nodes: 60, Paths: 10, Index: 0}, 1},
	}
	for _, tc := range cases {
		got := CompareGraphKeys(a, tc.b)
		switch {
		case tc.sign == 0 && got != 0,
			tc.sign < 0 && got >= 0,
			tc.sign > 0 && got <= 0:
			t.Errorf("CompareGraphKeys(%+v, %+v) = %d, want sign %d", a, tc.b, got, tc.sign)
		}
	}
}
