package service

import (
	"context"
	"errors"
	"testing"

	"repro/internal/expr"
)

// TestSweepShardStreamMatchesUnary pins the service streaming contract: the
// yields of a streamed shard are the returned shard result, each graph once.
func TestSweepShardStreamMatchesUnary(t *testing.T) {
	svc := mustNew(t, Config{Workers: 2})
	cfg := sweepConfig()
	var streamed []expr.GraphResult
	sh, err := svc.SweepShard(context.Background(), cfg, func(g expr.GraphResult) error {
		streamed = append(streamed, g)
		return nil
	})
	if err != nil {
		t.Fatalf("SweepShard: %v", err)
	}
	got := map[expr.GraphKey]expr.GraphResult{}
	for _, g := range streamed {
		got[g.Key()] = g
	}
	if len(got) != len(streamed) || len(got) != len(sh.Results) {
		t.Fatalf("%d yields of %d distinct graphs for a shard of %d", len(streamed), len(got), len(sh.Results))
	}
	for _, res := range sh.Results {
		if got[res.Key()] != res {
			t.Fatalf("streamed graph %+v differs from the returned %+v", got[res.Key()], res)
		}
	}
}

// TestSweepShardStreamYieldError pins that a failing yield aborts the run
// with the yield's error and releases the run's worker tokens, so the next
// request of the same shard runs to completion.
func TestSweepShardStreamYieldError(t *testing.T) {
	svc := mustNew(t, Config{Workers: 2})
	cfg := sweepConfig()
	boom := errors.New("client went away")
	if _, err := svc.SweepShard(context.Background(), cfg, func(expr.GraphResult) error {
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("SweepShard error = %v, want wrapped %v", err, boom)
	}
	if busy := svc.budget - len(svc.tokens); busy != 0 {
		t.Fatalf("%d worker tokens still lent out after the aborted stream", busy)
	}
	sh, err := svc.SweepShard(context.Background(), cfg, nil)
	if err != nil {
		t.Fatalf("SweepShard after aborted stream: %v", err)
	}
	if got, want := len(sh.Results), cfg.ShardSize(); got != want {
		t.Fatalf("shard after aborted stream covers %d graphs, want %d", got, want)
	}
}
