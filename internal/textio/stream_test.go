package textio

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/expr"
)

func testGraphs() []expr.GraphResult {
	return []expr.GraphResult{
		{Nodes: 40, Paths: 10, Index: 0, IncreasePct: 12.345678901234567, MergeNs: 1.5e6, PathSchedNs: 3.25e5},
		{Nodes: 40, Paths: 10, Index: 1, IncreasePct: 0, MergeNs: 90, PathSchedNs: 9, Violation: true},
		{Nodes: 60, Paths: 12, Index: 0, IncreasePct: 3.25, MergeNs: 80, PathSchedNs: 8},
	}
}

// writeTestStream renders a complete stream of the given graphs and returns
// the NDJSON bytes.
func writeTestStream(t *testing.T, graphs []expr.GraphResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewSweepStreamWriter(&buf)
	if err := sw.Header("h123", 1, 3, len(graphs)); err != nil {
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
	return buf.Bytes()
}

// TestSweepStreamRoundTrip pins the stream contract: every graph comes back
// in order with float-exact measurements, Next ends with io.EOF exactly once
// the summary validated, and the header carries the request identity.
func TestSweepStreamRoundTrip(t *testing.T) {
	graphs := testGraphs()
	data := writeTestStream(t, graphs)
	sr, err := NewSweepStreamReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewSweepStreamReader: %v", err)
	}
	h := sr.Header()
	if h.SweepHash != "h123" || h.ShardIndex != 1 || h.ShardCount != 3 || h.Graphs != len(graphs) {
		t.Fatalf("header drifted: %+v", h)
	}
	var got []expr.GraphResult
	for {
		g, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = append(got, g)
	}
	if !reflect.DeepEqual(got, graphs) {
		t.Fatalf("graphs drifted through the stream:\n%+v\nvs\n%+v", got, graphs)
	}
	if sum := sr.Summary(); sum == nil || sum.Graphs != len(graphs) {
		t.Fatalf("summary drifted: %+v", sr.Summary())
	}
	// Next after a clean end stays io.EOF.
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("Next after end = %v, want io.EOF", err)
	}
}

// TestSweepStreamReadSweepStream pins the convenience loop and the
// graphs-so-far contract of its error path.
func TestSweepStreamReadSweepStream(t *testing.T) {
	graphs := testGraphs()
	data := writeTestStream(t, graphs)
	var got []expr.GraphResult
	h, sum, err := ReadSweepStream(bytes.NewReader(data), func(g expr.GraphResult) error {
		got = append(got, g)
		return nil
	})
	if err != nil {
		t.Fatalf("ReadSweepStream: %v", err)
	}
	if h == nil || sum == nil || !reflect.DeepEqual(got, graphs) {
		t.Fatalf("stream did not round-trip: header=%+v summary=%+v graphs=%d", h, sum, len(got))
	}
}

// TestSweepStreamTorn pins the loud failure on every truncation point: a
// stream cut anywhere — mid-line or between frames — never reads as
// complete, and the graphs before the cut are still delivered.
func TestSweepStreamTorn(t *testing.T) {
	graphs := testGraphs()
	data := writeTestStream(t, graphs)
	lines := bytes.SplitAfter(data, []byte("\n"))
	// Cut after every whole frame except the full stream.
	for cut := 1; cut < len(lines)-1; cut++ {
		torn := bytes.Join(lines[:cut], nil)
		var got []expr.GraphResult
		_, sum, err := ReadSweepStream(bytes.NewReader(torn), func(g expr.GraphResult) error {
			got = append(got, g)
			return nil
		})
		if err == nil || sum != nil {
			t.Fatalf("cut after %d frames: torn stream read as complete", cut)
		}
		if !errors.Is(err, ErrTornStream) {
			t.Fatalf("cut after %d frames: error %v does not wrap ErrTornStream", cut, err)
		}
		if want := cut - 1; len(got) != min(want, len(graphs)) {
			t.Fatalf("cut after %d frames: delivered %d graphs, want %d", cut, len(got), min(want, len(graphs)))
		}
	}
	// Cut mid-line: the unterminated line is torn, never silently complete.
	if _, sum, err := ReadSweepStream(bytes.NewReader(data[:len(data)-3]), nil); !errors.Is(err, ErrTornStream) || sum != nil {
		t.Fatalf("mid-line truncation = %v, want a torn-stream error", err)
	}
}

// TestSweepStreamRejects covers the strict protocol validation frame by
// frame.
func TestSweepStreamRejects(t *testing.T) {
	head := `{"frame":"header","header":{"version":"v1","sweepHash":"h","shardIndex":0,"shardCount":1,"graphs":1}}` + "\n"
	graph := `{"frame":"graph","graph":{"nodes":40,"paths":10,"index":0,"increasePct":0,"mergeNs":0,"pathSchedNs":0}}` + "\n"
	for name, body := range map[string]string{
		"empty stream":         "",
		"no header first":      graph,
		"unknown frame kind":   `{"frame":"bogus"}` + "\n",
		"unknown field":        `{"frame":"header","header":{"version":"v1","shardIndex":0,"shardCount":1,"graphs":1},"bogus":1}` + "\n",
		"wrong version":        `{"frame":"header","header":{"version":"v2","shardIndex":0,"shardCount":1,"graphs":1}}` + "\n",
		"bad shard coords":     `{"frame":"header","header":{"version":"v1","shardIndex":3,"shardCount":1,"graphs":1}}` + "\n",
		"payload mismatch":     `{"frame":"graph","header":{"version":"v1","shardIndex":0,"shardCount":1,"graphs":1}}` + "\n",
		"two payloads":         `{"frame":"header","header":{"version":"v1","shardIndex":0,"shardCount":1,"graphs":1},"summary":{"graphs":0}}` + "\n",
		"summary short":        head + graph + `{"frame":"summary","summary":{"graphs":0}}` + "\n",
		"summary early":        head + `{"frame":"summary","summary":{"graphs":0}}` + "\n",
		"more than announced":  head + graph + graph,
		"data after summary":   head + graph + `{"frame":"summary","summary":{"graphs":1}}` + "\n" + graph,
		"second header midway": head + head,
		"error frame surfaces": head + graph + `{"frame":"error","error":{"message":"backend on fire"}}` + "\n",
		"eof without summary":  head + graph,
		"two frames one line":  head + strings.TrimSuffix(graph, "\n") + `{"frame":"summary","summary":{"graphs":1}}` + "\n",
		"frame split in two":   head + strings.Replace(graph, `"graph":`, "\n"+`"graph":`, 1) + `{"frame":"summary","summary":{"graphs":1}}` + "\n",
		"blank line":           head + "\n" + graph + `{"frame":"summary","summary":{"graphs":1}}` + "\n",
		"summary unterminated": head + graph + `{"frame":"summary","summary":{"graphs":1}}`,
	} {
		_, sum, err := ReadSweepStream(strings.NewReader(body), nil)
		if err == nil || sum != nil {
			t.Errorf("%s: must be rejected", name)
		}
		if name == "error frame surfaces" && !strings.Contains(err.Error(), "backend on fire") {
			t.Errorf("error frame must carry the remote message; got %v", err)
		}
	}
}

// TestFrameLineRoundTrip pins the per-line codec under the stream writer
// and reader: marshal → one NDJSON line → unmarshal is lossless and strict.
func TestFrameLineRoundTrip(t *testing.T) {
	g := testGraphs()[1]
	frame := &GraphResultDoc{Frame: FrameGraph, Graph: EncodeGraphResult(g)}
	line, err := marshalFrame(frame)
	if err != nil {
		t.Fatalf("marshalFrame: %v", err)
	}
	if n := bytes.Count(line, []byte("\n")); n != 1 || line[len(line)-1] != '\n' {
		t.Fatalf("frame line must be exactly one newline-terminated line; got %q", line)
	}
	back, err := unmarshalFrame(line)
	if err != nil {
		t.Fatalf("unmarshalFrame: %v", err)
	}
	if !reflect.DeepEqual(back, frame) {
		t.Fatalf("frame drifted: %+v vs %+v", back, frame)
	}
	if DecodeGraphResult(back.Graph) != g {
		t.Fatalf("graph drifted: %+v", DecodeGraphResult(back.Graph))
	}
	for name, bad := range map[string]string{
		"unknown field": `{"frame":"graph","graph":{"nodes":1,"paths":1,"index":0},"bogus":1}`,
		"trailing data": `{"frame":"graph","graph":{"nodes":1,"paths":1,"index":0}} {}`,
		"wrong payload": `{"frame":"graph","summary":{"graphs":1}}`,
		"unknown kind":  `{"frame":"wat","graph":{"nodes":1,"paths":1,"index":0}}`,
		"torn line":     `{"frame":"graph","graph":{"nodes":1,`,
	} {
		if _, err := unmarshalFrame([]byte(bad)); err == nil {
			t.Errorf("%s: must be rejected", name)
		}
	}
}

// TestSweepRequestRejectsSkip: the request document carries no skip list.
// A sender that still lists graphs to skip gets the strict decoder's
// unknown-field error, never a silently whole or silently short shard.
func TestSweepRequestRejectsSkip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSweepRequest(&buf, EncodeSweepRequest(testSweepConfig())); err != nil {
		t.Fatalf("WriteSweepRequest: %v", err)
	}
	doc := strings.Replace(buf.String(), `"version": "v1",`, `"version": "v1", "skip": [{"nodes": 40, "paths": 10, "index": 0}],`, 1)
	if doc == buf.String() {
		t.Fatalf("no version field to anchor the skip list in:\n%s", doc)
	}
	if _, _, err := ReadSweepRequest(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), `unknown field "skip"`) {
		t.Fatalf("ReadSweepRequest with a skip list = %v, want an unknown-field error", err)
	}
}

// TestGoldenSweepHash pins the content hash of expr.GoldenSweep: it names the
// sweep's journal directory and opens every shard stream, so a change to it
// orphans every journal and shard file written before.
func TestGoldenSweepHash(t *testing.T) {
	const want = "b5b99c7f014c4abaa61a54218232a21cda2ab3770c86f7505b770d002b008816"
	if got, err := SweepHash(EncodeSweepRequest(expr.GoldenSweep())); err != nil || got != want {
		t.Fatalf("SweepHash(GoldenSweep) = %s, %v; want %s", got, err, want)
	}
}

// TestSweepStreamWriterShape pins the writer-side protocol guards.
func TestSweepStreamWriterShape(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSweepStreamWriter(&buf)
	if err := sw.Graph(expr.GraphResult{}); err == nil {
		t.Error("graph before header must fail")
	}
	if err := sw.Summary(); err == nil {
		t.Error("summary before header must fail")
	}
	if err := sw.Header("h", 0, 1, 1); err != nil {
		t.Fatalf("Header: %v", err)
	}
	if err := sw.Header("h", 0, 1, 1); err == nil {
		t.Error("second header must fail")
	}
	if err := sw.Graph(expr.GraphResult{Nodes: 40, Paths: 10}); err != nil {
		t.Fatalf("Graph: %v", err)
	}
	if err := sw.Summary(); err != nil {
		t.Fatalf("Summary: %v", err)
	}
	if err := sw.Graph(expr.GraphResult{}); err == nil {
		t.Error("graph after summary must fail")
	}
	if err := sw.Error("late"); err == nil {
		t.Error("error frame after summary must fail")
	}
}
