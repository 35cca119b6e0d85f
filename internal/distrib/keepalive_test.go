package distrib

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/expr"
)

// countingClient returns an HTTP client whose transport counts dials — the
// observable for keep-alive reuse: every request beyond the first that
// triggers a new dial means a response body was closed before EOF.
func countingClient(dials *atomic.Int64) *http.Client {
	base := &net.Dialer{}
	return &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				dials.Add(1)
				return base.DialContext(ctx, network, addr)
			},
			MaxIdleConnsPerHost: 4,
		},
	}
}

// TestHTTPBackendReusesConnection pins the keep-alive fix: sweep attempts —
// successes and error envelopes alike — against the real production handler
// must share a single dialed connection, because every path drains the
// response body to EOF before closing it.
func TestHTTPBackendReusesConnection(t *testing.T) {
	ts := testBackendServer(t, 2)

	var dials atomic.Int64
	b := HTTP{BaseURL: ts.URL, Client: countingClient(&dials)}
	ctx := context.Background()
	cfg := expr.GoldenSweep()
	cfg.ShardCount = 4
	if _, err := b.RunShard(ctx, cfg); err != nil {
		t.Fatalf("RunShard: %v", err)
	}
	if _, err := b.RunShardStream(ctx, cfg, nil); err != nil {
		t.Fatalf("RunShardStream: %v", err)
	}
	// Error paths must drain too: an invalid shard request earns a 400
	// envelope without costing the pooled connection.
	bad := cfg
	bad.ShardIndex = 99
	if _, err := b.RunShard(ctx, bad); err == nil {
		t.Fatal("invalid shard must fail")
	}
	if _, err := b.RunShardStream(ctx, bad, nil); err == nil {
		t.Fatal("invalid streamed shard must fail")
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("attempts dialed %d connections, want 1 (body not drained before close?)", got)
	}
}

// TestReadErrorBodyTrimsToEnvelope pins the error-body fix: when the 4 KiB
// prefix parses as the server's JSON error envelope, only the message
// survives into the backend error; otherwise the raw bytes do.
func TestReadErrorBodyTrimsToEnvelope(t *testing.T) {
	for name, tc := range map[string]struct{ body, want string }{
		"envelope":       {`{"error":{"status":429,"message":"overloaded: 3 heavy requests in flight"}}`, "overloaded: 3 heavy requests in flight"},
		"raw text":       {"bad gateway\n", "bad gateway"},
		"empty message":  {`{"error":{"status":500,"message":""}}`, `{"error":{"status":500,"message":""}}`},
		"non-envelope":   {`{"status":"draining"}`, `{"status":"draining"}`},
		"truncated json": {`{"error":{"mess`, `{"error":{"mess`},
	} {
		if got := readErrorBody(strings.NewReader(tc.body)); got != tc.want {
			t.Errorf("%s: readErrorBody(%q) = %q, want %q", name, tc.body, got, tc.want)
		}
	}
}

// TestBackendErrorCarriesEnvelopeMessage pins the end-to-end shape: a shed
// from the production handler surfaces the envelope's message, not the JSON
// blob, in both the BackpressureError and ordinary error strings.
func TestBackendErrorCarriesEnvelopeMessage(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":{"status":429,"message":"overloaded"}}`))
	}))
	t.Cleanup(ts.Close)
	b := HTTP{BaseURL: ts.URL}
	_, err := b.RunShard(context.Background(), expr.GoldenSweep())
	var bp *BackpressureError
	if !errors.As(err, &bp) {
		t.Fatalf("want backpressure, got %v", err)
	}
	if bp.Msg != "overloaded" {
		t.Fatalf("BackpressureError.Msg = %q, want trimmed envelope message", bp.Msg)
	}
}
