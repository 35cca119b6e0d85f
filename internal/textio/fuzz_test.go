package textio

import (
	"bytes"
	"io"
	"os"
	"reflect"
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
	f.Add([]byte(`{"version":"v1","nodes":[40],"paths":[10],"graphsPerCell":1,"seed":0,"shardIndex":0,"shardCount":1,"workers":4,"options":{"strategy":"tabu"}}`))
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
// round-trip). Run with `go test -fuzz FuzzReadProblem ./internal/textio`.
func FuzzReadProblem(f *testing.F) {
	if golden, err := os.ReadFile("../../testdata/figure1_v1.json"); err == nil {
		f.Add(golden)
	}
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

// FuzzReadSweepStream throws arbitrary bytes at the strict sweep stream
// reader: it must never panic, io.EOF must come only after a summary whose
// count matches both the header and the graph frames received, and whatever
// the reader accepted must round-trip through the writer. Run with
// `go test -fuzz FuzzReadSweepStream ./internal/textio`.
func FuzzReadSweepStream(f *testing.F) {
	head := `{"frame":"header","header":{"version":"v1","sweepHash":"h","shardIndex":0,"shardCount":1,"graphs":1}}` + "\n"
	graph := `{"frame":"graph","graph":{"nodes":40,"paths":10,"index":0,"increasePct":1.5,"mergeNs":2,"pathSchedNs":3}}` + "\n"
	summary := `{"frame":"summary","summary":{"graphs":1}}` + "\n"
	f.Add([]byte(head + graph + summary))
	f.Add([]byte(head + graph))
	f.Add([]byte(head + graph + summary[:10]))
	f.Add([]byte(head + graph + summary + graph))
	f.Add([]byte(head + `{"frame":"error","error":{"message":"x"}}` + "\n"))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := NewSweepStreamReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		h := sr.Header()
		var graphs []expr.GraphResult
		for {
			g, err := sr.Next()
			if err == io.EOF {
				sum := sr.Summary()
				if sum == nil || sum.Graphs != h.Graphs || sum.Graphs != len(graphs) {
					t.Fatalf("clean end with summary %+v after %d graph frames, header announced %d", sum, len(graphs), h.Graphs)
				}
				break
			}
			if err != nil {
				if sr.Summary() != nil {
					t.Fatalf("failed stream exposes a summary: %v", err)
				}
				break
			}
			graphs = append(graphs, g)
		}
		var buf bytes.Buffer
		sw := NewSweepStreamWriter(&buf)
		if err := sw.Header(h.SweepHash, h.ShardIndex, h.ShardCount, len(graphs)); err != nil {
			t.Fatalf("Header: %v", err)
		}
		for _, g := range graphs {
			if err := sw.Graph(g); err != nil {
				t.Fatalf("Graph: %v", err)
			}
		}
		if err := sw.Summary(); err != nil {
			t.Fatalf("Summary: %v", err)
		}
		var again []expr.GraphResult
		h2, sum2, err := ReadSweepStream(&buf, func(g expr.GraphResult) error {
			again = append(again, g)
			return nil
		})
		if err != nil {
			t.Fatalf("writer output rejected: %v", err)
		}
		if h2.SweepHash != h.SweepHash || h2.ShardIndex != h.ShardIndex || h2.ShardCount != h.ShardCount ||
			sum2.Graphs != len(graphs) || !reflect.DeepEqual(again, graphs) {
			t.Fatalf("stream drifted through write/read: %+v %+v, %d vs %d graphs", h2, sum2, len(again), len(graphs))
		}
	})
}
