package httpserver

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/expr"
	"repro/internal/textio"
)

// postStream POSTs a sweep request and returns the raw response without
// draining it, so tests can read the NDJSON frames.
func postStream(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

// TestSweepStreamEndpointSkip pins that a skip list travels through the
// streamed endpoint: only the unreceived graphs are announced and served —
// the property the coordinator's torn-stream resume relies on.
func TestSweepStreamEndpointSkip(t *testing.T) {
	ts := testServer(t)
	cfg := expr.GoldenSweep()
	cfg.ShardCount = 2
	mine := cfg.Normalize().ShardGraphs()
	if len(mine) < 2 {
		t.Fatalf("test shard too small: %d graphs", len(mine))
	}
	cfg.Skip = mine[:1]

	resp := postStream(t, ts.URL+"/v1/sweep", sweepRequestBody(t, cfg))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	served := map[expr.GraphKey]bool{}
	header, _, err := textio.ReadSweepStream(resp.Body, func(g expr.GraphResult) error {
		served[g.Key()] = true
		return nil
	})
	if err != nil {
		t.Fatalf("ReadSweepStream: %v", err)
	}
	if header.Graphs != len(mine)-1 || len(served) != len(mine)-1 {
		t.Fatalf("skip stream announced %d / served %d graphs, want %d",
			header.Graphs, len(served), len(mine)-1)
	}
	if served[mine[0]] {
		t.Fatalf("skipped graph %+v was streamed anyway", mine[0])
	}
}

// TestSweepStreamEndpointRejects pins that request validation happens
// before the stream commits a 200: a bad document gets the ordinary JSON
// error envelope, never a frame.
func TestSweepStreamEndpointRejects(t *testing.T) {
	ts := testServer(t)
	resp, out := postJSON(t, ts.URL+"/v1/sweep", []byte(`{"version":"v1","bogus":1}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad doc = %d, want 400: %s", resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("bad doc answered with Content-Type %q, want the application/json envelope", ct)
	}
	if !bytes.Contains(out, []byte(`"error"`)) || bytes.Contains(out, []byte(`"frame"`)) {
		t.Fatalf("want an error envelope and no frame: %s", out)
	}
}

// TestSweepStreamStillDetectsFlusher pins that the statusWriter middleware
// does not mask flushability from the sweep stream: a plain (non-flushable)
// writer, which could not deliver the graphs as they complete, is rejected
// with 501 before any frame is written.
func TestSweepStreamStillDetectsFlusher(t *testing.T) {
	srv := mustServer(t)
	h := srv.Routes(nil)
	cfg := expr.GoldenSweep()
	cfg.ShardCount = 2
	req := httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(sweepRequestBody(t, cfg)))
	w := &nopRecorder{}
	h.ServeHTTP(w, req)
	if w.code != http.StatusNotImplemented {
		t.Fatalf("stream over non-flushable writer = %d, want 501", w.code)
	}
}
