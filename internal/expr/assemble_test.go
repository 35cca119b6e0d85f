package expr_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/textio"
)

// TestAssembleShardResultAccounting pins the strict coverage of assembling a
// shard from per-graph results received out of order, the way a coordinator
// assembles a streamed shard: the yields of RunSweepShardStream, sent through
// the shard stream in reverse order, assemble to the unary result in
// canonical order, and gaps, foreign extras and mis-filed entries are all
// loud errors.
func TestAssembleShardResultAccounting(t *testing.T) {
	cfg := expr.GoldenSweep()
	hash, err := textio.SweepHash(textio.EncodeSweepRequest(cfg))
	if err != nil {
		t.Fatalf("SweepHash: %v", err)
	}
	cfg.ShardIndex, cfg.ShardCount = 0, 2
	var yields []expr.GraphResult
	unary, err := expr.RunSweepShardStream(context.Background(), cfg, func(g expr.GraphResult) error {
		yields = append(yields, g)
		return nil
	})
	if err != nil {
		t.Fatalf("RunSweepShardStream: %v", err)
	}
	assemble := func(graphs []expr.GraphResult) (*expr.ShardResult, error) {
		t.Helper()
		var buf bytes.Buffer
		err := textio.WriteShard(&buf, hash, cfg, func(yield func(expr.GraphResult) error) error {
			for i := len(graphs) - 1; i >= 0; i-- {
				if err := yield(graphs[i]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("WriteShard: %v", err)
		}
		return textio.ReadShard(&buf, hash, cfg, nil)
	}

	if sh, err := assemble(yields); err != nil || !reflect.DeepEqual(sh, unary) {
		t.Fatalf("assembled-from-yields shard = %v; differs from the unary one or fails", err)
	}

	other := cfg
	other.ShardIndex = 1
	k := other.ShardGraphs()[0]
	stray := expr.GraphResult{Nodes: k.Nodes, Paths: k.Paths, Index: k.Index}
	// Graph 0's measurement filed under graph 1's coordinates.
	misfiled := append([]expr.GraphResult(nil), yields...)
	misfiled[0].Nodes, misfiled[0].Paths, misfiled[0].Index = yields[1].Nodes, yields[1].Paths, yields[1].Index
	for name, tc := range map[string]struct {
		graphs []expr.GraphResult
		want   string
	}{
		"gap":                 {yields[1:], "summary claims"},
		"foreign extra":       {append([]expr.GraphResult{{Nodes: 999, Paths: 10}}, yields...), "outside shard 0/2"},
		"other shard's graph": {append([]expr.GraphResult{stray}, yields[1:]...), "outside shard 0/2"},
		"misfiled entry":      {misfiled, "repeats graph"},
	} {
		if sh, err := assemble(tc.graphs); err == nil || sh != nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: assembled shard = %v, %v; want an error containing %q", name, sh, err, tc.want)
		}
	}
}
