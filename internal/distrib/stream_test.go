package distrib

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/service"
)

// zeroGraphTimes strips the wall-clock fields from a shard clone so
// deterministic comparisons ignore run-dependent timings.
func zeroGraphTimes(sh *expr.ShardResult) *expr.ShardResult {
	c := *sh
	c.Results = append([]expr.GraphResult(nil), sh.Results...)
	for i := range c.Results {
		c.Results[i].MergeNs = 0
		c.Results[i].PathSchedNs = 0
	}
	return &c
}

// TestHTTPRunShardStreamMatchesInProcess pins the HTTP backend against the
// production handler: every graph is yielded once, and the assembled shard
// — streamed, or through RunShard without a callback — matches an
// in-process expr.RunSweepShardStream byte for byte (timings aside).
func TestHTTPRunShardStreamMatchesInProcess(t *testing.T) {
	ts := testBackendServer(t, 2)
	b := HTTP{BaseURL: ts.URL}
	cfg := expr.GoldenSweep()
	cfg.ShardIndex, cfg.ShardCount = 1, 2
	want, err := expr.RunSweepShardStream(context.Background(), cfg, nil)
	if err != nil {
		t.Fatalf("RunSweepShardStream: %v", err)
	}

	var yields []expr.GraphResult
	streamed, err := b.RunShardStream(context.Background(), cfg, func(g expr.GraphResult) error {
		yields = append(yields, g)
		return nil
	})
	if err != nil {
		t.Fatalf("RunShardStream: %v", err)
	}
	whole, err := b.RunShard(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunShard: %v", err)
	}
	for name, sh := range map[string]*expr.ShardResult{"streamed": streamed, "RunShard": whole} {
		if !reflect.DeepEqual(zeroGraphTimes(sh), zeroGraphTimes(want)) {
			t.Errorf("%s shard differs from the in-process shard", name)
		}
	}
	if len(yields) != len(want.Results) {
		t.Fatalf("yielded %d graphs, shard has %d", len(yields), len(want.Results))
	}
}

// TestInProcessRunShardStream pins the in-process streaming backend, with
// and without a service attached.
func TestInProcessRunShardStream(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	cfg := expr.GoldenSweep()
	cfg.ShardCount = 2
	for name, b := range map[string]InProcess{
		"bare":    {},
		"service": {Service: svc},
	} {
		n := 0
		sh, err := b.RunShardStream(context.Background(), cfg, func(expr.GraphResult) error {
			n++
			return nil
		})
		if err != nil {
			t.Fatalf("%s: RunShardStream: %v", name, err)
		}
		if n != len(sh.Results) || n == 0 {
			t.Fatalf("%s: yielded %d graphs, shard has %d", name, n, len(sh.Results))
		}
	}
}
