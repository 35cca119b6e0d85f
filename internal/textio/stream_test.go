package textio

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/expr"
)

// shardFixture is one real shard of a sweep with its content hash and its
// frame stream as WriteShard writes it, graphs in canonical order.
type shardFixture struct {
	hash   string
	cfg    expr.SweepConfig // the sweep, with the shard's coordinates
	shard  *expr.ShardResult
	stream []byte
}

// goldenFixture schedules shard 0/2 of expr.GoldenSweep once per process.
var goldenFixture = sync.OnceValues(func() (*shardFixture, error) {
	cfg := expr.GoldenSweep()
	cfg.ShardIndex, cfg.ShardCount = 0, 2
	hash, err := SweepHash(EncodeSweepRequest(cfg))
	if err != nil {
		return nil, err
	}
	sh, err := expr.RunSweepShardStream(context.Background(), cfg, nil)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := WriteShard(&buf, hash, cfg, yieldAll(sh.Results)); err != nil {
		return nil, err
	}
	return &shardFixture{hash: hash, cfg: cfg, shard: sh, stream: buf.Bytes()}, nil
})

func goldenShard(t testing.TB) *shardFixture {
	t.Helper()
	fx, err := goldenFixture()
	if err != nil {
		t.Fatalf("golden shard: %v", err)
	}
	return fx
}

// yieldAll is a WriteShard run that yields the given graphs in order.
func yieldAll(graphs []expr.GraphResult) func(func(expr.GraphResult) error) error {
	return func(yield func(expr.GraphResult) error) error {
		for _, g := range graphs {
			if err := yield(g); err != nil {
				return err
			}
		}
		return nil
	}
}

// lines splits a whole frame stream into its newline-terminated lines.
func lines(stream []byte) []string {
	ls := strings.SplitAfter(string(stream), "\n")
	return ls[:len(ls)-1]
}

// summaryLine renders a summary frame claiming n graphs.
func summaryLine(n int) string {
	return fmt.Sprintf(`{"frame":"summary","summary":{"graphs":%d}}`+"\n", n)
}

// TestSweepStreamRoundTrip pins the codec: WriteShard writes the header with
// the sweep hash, the shard coordinates and the shard's size, and a summary
// counting the graphs; ReadShard yields every graph in stream order with
// float-exact measurements and returns the shard in canonical order, however
// the writer ordered it.
func TestSweepStreamRoundTrip(t *testing.T) {
	fx := goldenShard(t)
	want := fx.shard.Results
	reversed := make([]expr.GraphResult, 0, len(want))
	for i := len(want) - 1; i >= 0; i-- {
		reversed = append(reversed, want[i])
	}
	var buf bytes.Buffer
	if err := WriteShard(&buf, fx.hash, fx.cfg, yieldAll(reversed)); err != nil {
		t.Fatalf("WriteShard: %v", err)
	}
	ls := lines(buf.Bytes())
	wantHead := fmt.Sprintf(`{"frame":"header","header":{"version":"v1","sweepHash":%q,"shardIndex":0,"shardCount":2,"graphs":%d}}`+"\n",
		fx.hash, len(want))
	if ls[0] != wantHead || ls[len(ls)-1] != summaryLine(len(want)) || len(ls) != len(want)+2 {
		t.Fatalf("stream shape drifted:\n%s", buf.Bytes())
	}
	var yields []expr.GraphResult
	sh, err := ReadShard(&buf, fx.hash, expr.GoldenSweep(), func(g expr.GraphResult) error {
		yields = append(yields, g)
		return nil
	})
	if err != nil {
		t.Fatalf("ReadShard: %v", err)
	}
	if !reflect.DeepEqual(yields, reversed) {
		t.Fatalf("yields drifted from the stream order:\n%+v\nvs\n%+v", yields, reversed)
	}
	if !reflect.DeepEqual(sh, fx.shard) {
		t.Fatalf("shard drifted through the stream:\n%+v\nvs\n%+v", sh, fx.shard)
	}
}

// TestWriteShardFrames pins the writer's side effects: one flush per frame
// when the writer can flush, and an error frame carrying the message when
// run fails, after the graphs it yielded.
func TestWriteShardFrames(t *testing.T) {
	fx := goldenShard(t)
	w := &flushCounter{}
	if err := WriteShard(w, fx.hash, fx.cfg, yieldAll(fx.shard.Results)); err != nil {
		t.Fatalf("WriteShard: %v", err)
	}
	if want := len(fx.shard.Results) + 2; w.flushes != want || w.String() != string(fx.stream) {
		t.Fatalf("%d flushes for %d frames, or the stream differs", w.flushes, want)
	}

	var buf bytes.Buffer
	boom := errors.New("backend on fire")
	err := WriteShard(&buf, fx.hash, fx.cfg, func(yield func(expr.GraphResult) error) error {
		if err := yield(fx.shard.Results[0]); err != nil {
			return err
		}
		return boom
	})
	if err != boom {
		t.Fatalf("WriteShard = %v, want run's error", err)
	}
	ls := lines(buf.Bytes())
	if len(ls) != 3 || ls[2] != `{"frame":"error","error":{"message":"backend on fire"}}`+"\n" {
		t.Fatalf("failed run wrote:\n%s", buf.Bytes())
	}
	if _, err := ReadShard(&buf, fx.hash, fx.cfg, nil); err == nil || !strings.Contains(err.Error(), "backend on fire") {
		t.Fatalf("ReadShard of an aborted stream = %v, want the writer's message", err)
	}
}

// flushCounter is a writer with a Flush method, like an HTTP response.
type flushCounter struct {
	bytes.Buffer
	flushes int
}

func (w *flushCounter) Flush() { w.flushes++ }

// TestSweepStreamWriterShape pins the writer-side shape of a stream: the
// header comes first and announces the shard's size whatever run yields, and
// the summary counts the graphs actually written, so a short run's stream is
// refused rather than read as whole. A failed write ends the stream: a failed
// header never starts run, a failed graph write is yield's error, and
// nothing is written after it.
func TestSweepStreamWriterShape(t *testing.T) {
	fx := goldenShard(t)
	n := len(fx.shard.Results)
	head := lines(fx.stream)[0]
	for _, k := range []int{0, n - 1} {
		var buf bytes.Buffer
		if err := WriteShard(&buf, fx.hash, fx.cfg, yieldAll(fx.shard.Results[:k])); err != nil {
			t.Fatalf("WriteShard of %d graphs: %v", k, err)
		}
		ls := lines(buf.Bytes())
		if len(ls) != k+2 || ls[0] != head || ls[k+1] != summaryLine(k) {
			t.Fatalf("run of %d graphs wrote:\n%s", k, buf.Bytes())
		}
		if _, err := ReadShard(&buf, fx.hash, fx.cfg, nil); err == nil || !strings.Contains(err.Error(), "summary claims") {
			t.Errorf("ReadShard of a run of %d graphs = %v, want a summary mismatch", k, err)
		}
	}

	w := &failingWriter{writes: 0}
	err := WriteShard(w, fx.hash, fx.cfg, func(func(expr.GraphResult) error) error {
		t.Error("run started after the header write failed")
		return nil
	})
	if !errors.Is(err, errDiskFull) || w.Len() != 0 {
		t.Fatalf("WriteShard with a failing header write = %v, wrote %q", err, w.String())
	}

	w = &failingWriter{writes: 2}
	var yieldErrs []error
	err = WriteShard(w, fx.hash, fx.cfg, func(yield func(expr.GraphResult) error) error {
		for _, g := range fx.shard.Results {
			if err := yield(g); err != nil {
				yieldErrs = append(yieldErrs, err)
				return err
			}
			yieldErrs = append(yieldErrs, nil)
		}
		return nil
	})
	if !errors.Is(err, errDiskFull) || len(yieldErrs) != 2 || yieldErrs[0] != nil || !errors.Is(yieldErrs[1], errDiskFull) {
		t.Fatalf("WriteShard with a failing graph write = %v, yields returned %v", err, yieldErrs)
	}
	if want := strings.Join(lines(fx.stream)[:2], ""); w.String() != want {
		t.Fatalf("WriteShard wrote after a failed write:\n%s", w.String())
	}
}

var errDiskFull = errors.New("disk full")

// failingWriter accepts the given number of writes, then fails every one.
type failingWriter struct {
	bytes.Buffer
	writes int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.writes == 0 {
		return 0, errDiskFull
	}
	w.writes--
	return w.Buffer.Write(p)
}

// TestSweepStreamReadSweepStream pins ReadShard's yield loop: yield sees
// every graph in stream order, and on the error path it has seen exactly the
// graphs before the failure — a failing yield stops the read with yield's
// own error, and a stream aborted midway still yields the graphs before its
// error frame. A failed read never returns a shard.
func TestSweepStreamReadSweepStream(t *testing.T) {
	fx := goldenShard(t)
	var got []expr.GraphResult
	collect := func(g expr.GraphResult) error {
		got = append(got, g)
		return nil
	}
	sh, err := ReadShard(bytes.NewReader(fx.stream), fx.hash, fx.cfg, collect)
	if err != nil || !reflect.DeepEqual(got, fx.shard.Results) || !reflect.DeepEqual(sh, fx.shard) {
		t.Fatalf("ReadShard = %v; yields or shard drifted from the stream", err)
	}

	boom := errors.New("consumer went away")
	yields := 0
	sh, err = ReadShard(bytes.NewReader(fx.stream), fx.hash, fx.cfg, func(expr.GraphResult) error {
		yields++
		if yields == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || sh != nil || yields != 2 {
		t.Fatalf("ReadShard with a failing yield = %v, %v after %d yields; want yield's error after 2", sh, err, yields)
	}

	got = nil
	aborted := strings.Join(lines(fx.stream)[:3], "") + `{"frame":"error","error":{"message":"backend on fire"}}` + "\n"
	sh, err = ReadShard(strings.NewReader(aborted), fx.hash, fx.cfg, collect)
	if err == nil || sh != nil || !reflect.DeepEqual(got, fx.shard.Results[:2]) {
		t.Fatalf("ReadShard of a stream aborted after 2 graphs = %v, %v; yielded %d graphs", sh, err, len(got))
	}
}

// TestSweepStreamTorn pins the loud failure on every truncation point: a
// stream cut anywhere — mid-line or between frames, before the header
// included — never reads as complete and wraps ErrTornStream, and the graphs
// before a cut between frames are still yielded.
func TestSweepStreamTorn(t *testing.T) {
	fx := goldenShard(t)
	for cut := 0; cut < len(fx.stream); cut++ {
		yields := 0
		sh, err := ReadShard(bytes.NewReader(fx.stream[:cut]), fx.hash, fx.cfg, func(expr.GraphResult) error {
			yields++
			return nil
		})
		if !errors.Is(err, ErrTornStream) || sh != nil {
			t.Fatalf("cut after %d of %d bytes = %v, %v; want a torn-stream error", cut, len(fx.stream), sh, err)
		}
		if whole := bytes.Count(fx.stream[:cut], []byte("\n")); cut > 0 && fx.stream[cut-1] == '\n' && yields != min(whole-1, len(fx.shard.Results)) {
			t.Fatalf("cut after %d frames: yielded %d graphs", whole, yields)
		}
	}
}

// TestSweepStreamRejects covers the strict checks frame by frame.
func TestSweepStreamRejects(t *testing.T) {
	fx := goldenShard(t)
	ls := lines(fx.stream)
	head, graph, n := ls[0], ls[1], len(fx.shard.Results)
	graphs := strings.Join(ls[1:n+1], "")
	other := strings.Replace(graph, `"index":`, `"index":9`, 1)
	for name, tc := range map[string]struct{ body, want string }{
		"empty stream":         {"", "torn"},
		"no header first":      {graph, "starts with"},
		"unknown frame kind":   {`{"frame":"bogus"}` + "\n", "unknown sweep stream frame"},
		"unknown field":        {strings.Replace(head, `{"frame"`, `{"bogus":1,"frame"`, 1), "unknown field"},
		"wrong version":        {strings.Replace(head, `"v1"`, `"v2"`, 1), "unsupported sweep stream version"},
		"no sweep hash":        {strings.Replace(head, `"sweepHash":"`+fx.hash+`",`, "", 1), "carries no sweepHash"},
		"foreign sweep hash":   {strings.Replace(head, fx.hash, strings.Repeat("0", 64), 1), "another sweep"},
		"bad shard coords":     {strings.Replace(head, `"shardIndex":0`, `"shardIndex":3`, 1), "claims shard 3/2"},
		"count not shard size": {strings.Replace(head, fmt.Sprintf(`"graphs":%d`, n), `"graphs":5`, 1), "announces 5 graphs"},
		"payload mismatch":     {strings.Replace(head, `"frame":"header"`, `"frame":"graph"`, 1), "malformed"},
		"two payloads":         {strings.Replace(head, "}}\n", `},"summary":{"graphs":0}}`+"\n", 1), "malformed"},
		"repeated graph":       {head + graph + graph, "repeats graph"},
		"graph outside shard":  {head + other, "outside shard 0/2"},
		"summary short":        {head + graphs + summaryLine(n-1), "summary claims"},
		"summary early":        {head + summaryLine(0), "summary claims"},
		"data after summary":   {head + graphs + summaryLine(n) + graph, "continues after its summary"},
		"second header midway": {head + head, "unexpected"},
		"error frame surfaces": {head + graph + `{"frame":"error","error":{"message":"backend on fire"}}` + "\n", "backend on fire"},
		"eof without summary":  {head + graph, "torn"},
		"two frames one line":  {head + strings.TrimSuffix(graphs, "\n") + summaryLine(n), "trailing data"},
		"frame split in two":   {head + strings.Replace(graphs, `"graph":`, "\n"+`"graph":`, 1) + summaryLine(n), "textio"},
		"blank line":           {head + "\n" + graphs + summaryLine(n), "textio"},
		"summary unterminated": {head + graphs + strings.TrimSuffix(summaryLine(n), "\n"), "torn"},
	} {
		sh, err := ReadShard(strings.NewReader(tc.body), fx.hash, fx.cfg, nil)
		if err == nil || sh != nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReadShard = %v, %v; want an error containing %q", name, sh, err, tc.want)
		}
	}
}

// TestFrameLineRoundTrip pins the per-line codec under the writer and the
// reader: a frame marshals to one NDJSON line, which unmarshals to the same
// frame, strictly.
func TestFrameLineRoundTrip(t *testing.T) {
	g := goldenShard(t).shard.Results[1]
	g.Violation = true
	frame := &GraphResultDoc{Frame: FrameGraph, Graph: &g}
	line, err := json.Marshal(frame)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if bytes.Contains(line, []byte("\n")) {
		t.Fatalf("frame must fit one line; got %q", line)
	}
	back, err := unmarshalFrame(append(line, '\n'))
	if err != nil {
		t.Fatalf("unmarshalFrame: %v", err)
	}
	if !reflect.DeepEqual(back, frame) {
		t.Fatalf("frame drifted: %+v vs %+v", back.Graph, frame.Graph)
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
