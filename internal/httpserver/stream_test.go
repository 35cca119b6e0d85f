package httpserver

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/expr"
)

// TestSweepStreamEndpointSkip pins that the request carries no skip list: a
// coordinator that still asks the server to skip graphs it holds gets a 400
// envelope before any frame, never a silently whole or short shard.
func TestSweepStreamEndpointSkip(t *testing.T) {
	ts := testServer(t)
	doc := `{"version":"v1","nodes":[60],"paths":[10],"graphsPerCell":1,"seed":7,"shardIndex":0,"shardCount":1,"skip":[{"nodes":60,"paths":10,"index":0}]}`
	resp, out := postJSON(t, ts.URL+"/v1/sweep", []byte(doc))
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(out, []byte(`unknown field \"skip\"`)) {
		t.Fatalf("skip document = %d %s, want a 400 naming the unknown field", resp.StatusCode, out)
	}
	if bytes.Contains(out, []byte(`"frame"`)) {
		t.Fatalf("want an error envelope and no frame: %s", out)
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
