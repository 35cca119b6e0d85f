package textio

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/expr"
)

// FuzzReadSweepRequest throws arbitrary bytes at the strict sweep-request
// reader: parsing must never panic, and any input that survives must decode
// to a config whose re-encoding is accepted and idempotent — the property the
// distributed sweep's coordinator/worker agreement rests on. Run with
// `go test -fuzz FuzzReadSweepRequest ./internal/textio`.
func FuzzReadSweepRequest(f *testing.F) {
	f.Add([]byte(`{"version":"v1","nodes":[40,60],"paths":[10,12],"graphsPerCell":2,"seed":1998,"shardIndex":1,"shardCount":3}`))
	f.Add([]byte(`{"version":"v1","nodes":[40],"paths":[10],"graphsPerCell":1,"seed":-7,"shardIndex":0,"shardCount":1,"workers":4,"options":{"strategy":"tabu"}}`))
	f.Add([]byte(`{"version":"v2"}`))
	f.Add([]byte(`{"version":"v1","shardIndex":-1}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, cfg, err := ReadSweepRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		doc2 := EncodeSweepRequest(cfg)
		cfg2, err := DecodeSweepRequest(doc2)
		if err != nil {
			t.Fatalf("re-encoded document rejected: %v", err)
		}
		doc3 := EncodeSweepRequest(cfg2)
		if !reflect.DeepEqual(doc2, doc3) {
			t.Fatalf("encode/decode not idempotent:\n%+v\nvs\n%+v", doc2, doc3)
		}
		h2, err := SweepHash(doc2)
		if err != nil {
			t.Fatalf("SweepHash(doc2): %v", err)
		}
		h3, err := SweepHash(doc3)
		if err != nil {
			t.Fatalf("SweepHash(doc3): %v", err)
		}
		if h2 != h3 {
			t.Fatalf("sweep hash not stable across round-trips")
		}
	})
}

// FuzzReadProblem throws arbitrary bytes at the strict v1 reader: parsing
// must never panic, and any input that survives ReadProblem+DecodeProblem
// must re-encode to a document that decodes to the same model (idempotent
// round-trip). The seeds include an indented grid problem (60 nodes, 10
// paths), whose arrays the byte parser walks. Run with
// `go test -fuzz '^FuzzReadProblem$' ./internal/textio`.
func FuzzReadProblem(f *testing.F) {
	if golden, err := os.ReadFile("../../testdata/figure1_v1.json"); err == nil {
		f.Add(golden)
	}
	f.Add(indented(f, gridDocs(f, 1)[0]))
	f.Add([]byte(`{"version":"v1","name":"t","processingElements":[{"name":"cpu","kind":"processor"},{"name":"bus","kind":"bus","connectsAll":true}],"processes":[{"name":"A","exec":2,"pe":"cpu"}],"edges":[]}`))
	f.Add([]byte(`{"version":"v1"}`))
	f.Add([]byte(`{"version":"v2"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := ReadProblem(bytes.NewReader(data))
		if err != nil {
			return
		}
		g, a, opts, err := DecodeProblem(doc)
		if err != nil {
			return
		}
		doc2 := EncodeProblem(g, a, opts)
		g2, a2, opts2, err := DecodeProblem(doc2)
		if err != nil {
			t.Fatalf("re-encoded document rejected: %v", err)
		}
		if opts2 != opts {
			t.Fatalf("options drifted: %+v vs %+v", opts2, opts)
		}
		doc3 := EncodeProblem(g2, a2, opts2)
		if !reflect.DeepEqual(doc2, doc3) {
			t.Fatalf("encode/decode not idempotent")
		}
	})
}

// FuzzReadSweepStream throws arbitrary bytes at ReadShard, the one reader of
// sweep shard streams, starting from a real shard (shard 0/2 of the golden
// sweep): it must never panic, and whatever it accepts must be exactly the
// graphs of the shard its header names, each yielded once, returned in
// canonical order, and written back through WriteShard to the same shard.
// Run with `go test -fuzz FuzzReadSweepStream ./internal/textio`.
func FuzzReadSweepStream(f *testing.F) {
	fx := goldenShard(f)
	ls := lines(fx.stream)
	n := len(fx.shard.Results)
	head, graphs := ls[0], strings.Join(ls[1:n+1], "")
	// The repeated-graph stream: header and summary agree on one graph more
	// than the shard has, and the extra frame repeats the first graph.
	repeated := strings.Replace(head, fmt.Sprintf(`"graphs":%d`, n), fmt.Sprintf(`"graphs":%d`, n+1), 1) +
		graphs + regexp.MustCompile(`"increasePct":[^,]+`).ReplaceAllString(ls[1], `"increasePct":999`) + summaryLine(n+1)
	f.Add(fx.stream)
	f.Add([]byte(repeated))
	f.Add([]byte(head + graphs))
	f.Add([]byte(head + graphs + summaryLine(n)[:10]))
	f.Add([]byte(head + graphs + summaryLine(n) + ls[1]))
	f.Add([]byte(head + `{"frame":"error","error":{"message":"x"}}` + "\n"))
	f.Add([]byte(``))
	f.Add([]byte(head + ls[1] + ls[1] + strings.Join(ls[3:], "")))
	f.Fuzz(func(t *testing.T, data []byte) {
		var yields []expr.GraphResult
		sh, err := ReadShard(bytes.NewReader(data), fx.hash, fx.cfg, func(g expr.GraphResult) error {
			yields = append(yields, g)
			return nil
		})
		if err != nil {
			return
		}
		cfg := fx.cfg
		cfg.ShardIndex, cfg.ShardCount = sh.ShardIndex, sh.ShardCount
		keys := cfg.ShardGraphs()
		if len(sh.Results) != len(keys) || len(yields) != len(keys) {
			t.Fatalf("accepted %d results and %d yields for shard %d/%d of %d graphs",
				len(sh.Results), len(yields), sh.ShardIndex, sh.ShardCount, len(keys))
		}
		yielded := make(map[expr.GraphKey]expr.GraphResult, len(yields))
		for _, g := range yields {
			yielded[g.Key()] = g
		}
		for i, g := range sh.Results {
			if g.Key() != keys[i] || yielded[g.Key()] != g {
				t.Fatalf("result %d is graph %+v, want %+v, yielded once", i, g.Key(), keys[i])
			}
		}
		var buf bytes.Buffer
		if err := WriteShard(&buf, fx.hash, cfg, yieldAll(sh.Results)); err != nil {
			t.Fatalf("WriteShard: %v", err)
		}
		again, err := ReadShard(&buf, fx.hash, fx.cfg, nil)
		if err != nil || !reflect.DeepEqual(again, sh) {
			t.Fatalf("shard drifted through WriteShard and ReadShard: %v", err)
		}
	})
}
