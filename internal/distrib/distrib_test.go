package distrib

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/httpserver"
	"repro/internal/service"
)

// testBackendServer mounts the production /v1/sweep handler on an httptest
// server, so the coordinator is exercised against exactly what cpgserve
// serves.
func testBackendServer(t *testing.T, workers int) *httptest.Server {
	t.Helper()
	srv, err := httpserver.NewServer(httpserver.Options{Service: service.Config{Workers: workers}})
	if err != nil {
		t.Fatalf("httpserver.NewServer: %v", err)
	}
	ts := httptest.NewServer(srv.Routes(nil))
	t.Cleanup(ts.Close)
	return ts
}

func goldenCSV(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/sweep_golden.csv")
	if err != nil {
		t.Fatalf("reading golden sweep CSV (regenerate with `go run ./scripts/gengolden`): %v", err)
	}
	return string(data)
}

func cellsCSV(t *testing.T, cells []expr.Cell) string {
	t.Helper()
	var buf bytes.Buffer
	if err := expr.WriteSweepCSV(&buf, expr.ZeroTimes(cells)); err != nil {
		t.Fatalf("WriteSweepCSV: %v", err)
	}
	return buf.String()
}

// TestCoordinatorGoldenAcrossBackendMixes is the acceptance matrix of the
// distributed sweep: for 1, 2 and 3 shards, over in-process execution, one
// HTTP server, two HTTP servers, and a mixed in-process+HTTP set, the merged
// CSV is byte-identical to testdata/sweep_golden.csv. The shard fan-out is
// concurrent, so `go test -race ./internal/distrib` also races the whole
// coordinator/service/handler stack.
func TestCoordinatorGoldenAcrossBackendMixes(t *testing.T) {
	golden := goldenCSV(t)
	cfg := expr.GoldenSweep()
	tsA := testBackendServer(t, 2)
	tsB := testBackendServer(t, 1)
	mixes := map[string][]Backend{
		"in-process":  nil,
		"one server":  {HTTP{BaseURL: tsA.URL}},
		"two servers": {HTTP{BaseURL: tsA.URL}, HTTP{BaseURL: tsB.URL}},
		"mixed":       {HTTP{BaseURL: tsA.URL}, InProcess{}},
	}
	for name, backends := range mixes {
		for _, shards := range []int{1, 2, 3} {
			co := &Coordinator{Shards: shards, Backends: backends}
			cells, err := co.Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s, %d shards: %v", name, shards, err)
			}
			if got := cellsCSV(t, cells); got != golden {
				t.Errorf("%s, %d shards: merged CSV differs from golden:\n--- golden\n%s\n--- got\n%s", name, shards, golden, got)
			}
		}
	}
}

// TestCoordinatorRetriesDeadBackend pins the failover property: with one
// backend killed (connection refused on every request), its shards migrate
// to the surviving server and the sweep still reproduces the golden CSV. The
// retries reach Log, and the shard completions reach Progress alone.
func TestCoordinatorRetriesDeadBackend(t *testing.T) {
	golden := goldenCSV(t)
	alive := testBackendServer(t, 2)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // kill it: every request now fails to connect

	var retries, logDone, progressDone atomic.Int32
	co := &Coordinator{
		Shards:   3,
		Backends: []Backend{HTTP{BaseURL: dead.URL}, HTTP{BaseURL: alive.URL}},
		Log: func(format string, args ...any) {
			line := []byte(fmt.Sprintf(format, args...))
			if bytes.Contains(line, []byte("retrying")) {
				retries.Add(1)
			}
			if bytes.Contains(line, []byte(" done on ")) {
				logDone.Add(1)
			}
		},
		Progress: func(format string, args ...any) {
			if bytes.Contains([]byte(fmt.Sprintf(format, args...)), []byte(" done on ")) {
				progressDone.Add(1)
			}
		},
	}
	cells, err := co.Run(context.Background(), expr.GoldenSweep())
	if err != nil {
		t.Fatalf("coordinator with one dead backend: %v", err)
	}
	if got := cellsCSV(t, cells); got != golden {
		t.Errorf("CSV after failover differs from golden:\n--- golden\n%s\n--- got\n%s", golden, got)
	}
	if retries.Load() == 0 {
		t.Errorf("expected at least one shard retry off the dead backend")
	}
	if logDone.Load() != 0 || progressDone.Load() != 3 {
		t.Errorf("shard completions: %d on Log, %d on Progress; want 0 and 3", logDone.Load(), progressDone.Load())
	}

	// With every backend dead the sweep must fail loudly, not truncate.
	co = &Coordinator{Shards: 2, Backends: []Backend{HTTP{BaseURL: dead.URL}}}
	if _, err := co.Run(context.Background(), expr.GoldenSweep()); err == nil {
		t.Fatalf("all-dead backends must fail the sweep")
	}
}

// TestCoordinatorServerSideError checks that a server rejecting the shard
// (HTTP error envelope) is surfaced through the retry chain.
func TestCoordinatorServerSideError(t *testing.T) {
	boom := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":{"status":500,"message":"boom"}}`, http.StatusInternalServerError)
	}))
	t.Cleanup(boom.Close)
	co := &Coordinator{Shards: 2, Backends: []Backend{HTTP{BaseURL: boom.URL}}}
	_, err := co.Run(context.Background(), expr.GoldenSweep())
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("boom")) {
		t.Fatalf("server-side error must be surfaced; got %v", err)
	}
}

// hangServer serves /v1/sweep by never answering: the handler parks until
// test cleanup, the deterministic stand-in for a wedged (connected but
// unresponsive) backend. The explicit release channel matters: an HTTP/1
// server whose handler never reads the body does not notice the client
// abort, so parking on r.Context() alone would deadlock Server.Close.
func hangServer(t *testing.T) *httptest.Server {
	t.Helper()
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(release) }) // LIFO: runs before ts.Close
	return ts
}

// TestCoordinatorCancelPromptly pins the cancellation property of the
// coordinator: with a backend that never answers (and shard timeouts
// disabled), only context propagation can make Run return — so a cancelled
// coordinator returning at all, shortly after the cancel, proves the
// in-flight shard requests were aborted promptly.
func TestCoordinatorCancelPromptly(t *testing.T) {
	hang := hangServer(t)
	co := &Coordinator{Shards: 2, Backends: []Backend{HTTP{BaseURL: hang.URL}}, ShardTimeout: -1}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := co.Run(ctx, expr.GoldenSweep())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("cancelled coordinated sweep must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep must surface context.Canceled; got %v after %v", err, elapsed)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation not prompt: returned only after %v", elapsed)
	}
}

// TestCoordinatorShardTimeoutFailover pins the hung-backend guarantee: a
// backend that accepts connections but never answers exhausts its per-attempt
// ShardTimeout, the shard migrates to the healthy server, and the sweep still
// reproduces the golden CSV.
func TestCoordinatorShardTimeoutFailover(t *testing.T) {
	golden := goldenCSV(t)
	hang := hangServer(t)
	alive := testBackendServer(t, 2)
	var timedOut atomic.Int32
	co := &Coordinator{
		Shards:       3,
		Backends:     []Backend{HTTP{BaseURL: hang.URL}, HTTP{BaseURL: alive.URL}},
		ShardTimeout: 250 * time.Millisecond,
		Log: func(format string, args ...any) {
			if strings.Contains(fmt.Sprintf(format, args...), "attempt timed out after 250ms") {
				timedOut.Add(1)
			}
		},
	}
	cells, err := co.Run(context.Background(), expr.GoldenSweep())
	if err != nil {
		t.Fatalf("coordinator with one hung backend: %v", err)
	}
	if got := cellsCSV(t, cells); got != golden {
		t.Errorf("CSV after hung-backend failover differs from golden:\n--- golden\n%s\n--- got\n%s", golden, got)
	}
	if timedOut.Load() == 0 {
		t.Errorf("no attempt on the hung backend was reported as timed out")
	}
}

// TestCoordinatorZeroBackends: once every backend is evicted nothing can run
// the remaining shards; the sweep must fail loudly instead of waiting for a
// backend that will never come back.
func TestCoordinatorZeroBackends(t *testing.T) {
	dead := &scriptedBackend{name: "dead", run: func(context.Context, expr.SweepConfig, func(expr.GraphResult) error) (*expr.ShardResult, error) {
		return nil, errors.New("connection refused")
	}}
	co := &Coordinator{Shards: 2, Backends: []Backend{dead}, MaxAttempts: 10, RetryBaseDelay: time.Millisecond}
	_, err := co.Run(context.Background(), expr.GoldenSweep())
	if err == nil || !strings.Contains(err.Error(), "no live backends") {
		t.Fatalf("Run with every backend evicted = %v, want 'no live backends'", err)
	}
}

// TestCoordinatorDuplicateBackends: the fleet is checked before anything
// runs. A backend listed twice (the same URL twice) is a configuration error,
// not a bigger fleet.
func TestCoordinatorDuplicateBackends(t *testing.T) {
	for name, backends := range map[string][]Backend{
		"same URL twice":   {HTTP{BaseURL: "http://a:1"}, HTTP{BaseURL: "http://a:1"}},
		"in-process twice": {InProcess{}, InProcess{}},
	} {
		co := &Coordinator{Backends: backends}
		if _, err := co.Run(context.Background(), expr.GoldenSweep()); err == nil || !strings.Contains(err.Error(), "listed twice") {
			t.Errorf("%s: Run = %v, want 'listed twice'", name, err)
		}
	}
}

// TestCoordinatorFleetValidation: a nil backend and an empty name are
// rejected along with duplicates, a duplicate rejects the whole list rather
// than being dropped, and an empty list means one in-process backend.
func TestCoordinatorFleetValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		backends []Backend
		want     string
	}{
		"nil backend":       {[]Backend{InProcess{}, nil}, "nil backend"},
		"empty backend URL": {[]Backend{HTTP{}}, "must not be empty"},
		"duplicate URL":     {[]Backend{HTTP{BaseURL: "http://a:1"}, InProcess{}, HTTP{BaseURL: "http://a:1"}}, "listed twice"},
	} {
		if _, err := (&Coordinator{Backends: tc.backends}).fleet(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: fleet = %v, want %q", name, err, tc.want)
		}
	}
	fleet, err := (&Coordinator{Backends: []Backend{HTTP{BaseURL: "http://a:1"}, InProcess{}}}).fleet()
	if err != nil || len(fleet) != 2 {
		t.Fatalf("fleet of one HTTP and one in-process backend = %d members, %v; want 2, nil", len(fleet), err)
	}
	fleet, err = (&Coordinator{}).fleet()
	if err != nil || len(fleet) != 1 || fleet[0].name != (InProcess{}).Name() {
		t.Fatalf("default fleet = %+v, %v; want one in-process backend", fleet, err)
	}
}

// TestCoordinatorRejectsForeignSweepHash: a confused or stale server whose
// response carries a different sweep hash must be rejected before its cells
// can reach the merge.
func TestCoordinatorRejectsForeignSweepHash(t *testing.T) {
	inner := testBackendServer(t, 1)
	// A mangling proxy: forwards to the real handler, then rewrites the
	// stream header's sweepHash — exactly what a server answering for some
	// other sweep would look like.
	sweepHash := regexp.MustCompile(`"sweepHash":"[0-9a-f]+"`)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, inner.URL+r.URL.Path, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		w.Write(sweepHash.ReplaceAll(data, []byte(`"sweepHash":"`+strings.Repeat("0", 16)+`"`)))
	}))
	t.Cleanup(proxy.Close)

	co := &Coordinator{
		Shards:         2,
		Backends:       []Backend{HTTP{BaseURL: proxy.URL}},
		MaxAttempts:    2,
		RetryBaseDelay: time.Millisecond,
	}
	_, err := co.Run(context.Background(), expr.GoldenSweep())
	if err == nil || !strings.Contains(err.Error(), "another sweep") {
		t.Fatalf("Run against hash-mangling server = %v, want 'another sweep'", err)
	}
}

// TestCoordinatorPreCancelled checks the fast path: a pre-cancelled context
// never reaches a backend.
func TestCoordinatorPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	co := &Coordinator{Shards: 2}
	if _, err := co.Run(ctx, expr.GoldenSweep()); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled coordinator must return context.Canceled; got %v", err)
	}
}

// TestCoordinatorSharedServiceBudget runs the in-process backend through one
// service, so concurrent shards share the global worker budget, and a second
// identical run schedules every shard again and reproduces the first byte
// for byte.
func TestCoordinatorSharedServiceBudget(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	co := &Coordinator{Shards: 3, Backends: []Backend{InProcess{Service: svc}}}
	cfg := expr.GoldenSweep()
	first, err := co.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	before := svc.Stats().SweepRequests
	second, err := co.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if cellsCSV(t, first) != cellsCSV(t, second) {
		t.Fatalf("rerun differs from first run")
	}
	if ran := svc.Stats().SweepRequests - before; ran < 3 {
		t.Fatalf("second run executed %d shard requests, want all 3 scheduled again", ran)
	}
}
