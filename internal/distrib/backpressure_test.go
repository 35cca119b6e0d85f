package distrib

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/httpserver"
	"repro/internal/obs"
	"repro/internal/service"
)

// TestHTTPBackendMapsShedsToBackpressure pins the status mapping of
// HTTP.RunShard: 429 and 503 responses become BackpressureError carrying the
// Retry-After hint, other non-200s stay ordinary errors.
func TestHTTPBackendMapsShedsToBackpressure(t *testing.T) {
	var status atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		w.WriteHeader(int(status.Load()))
		w.Write([]byte(`{"error":{"status":429,"message":"overloaded"}}`))
	}))
	t.Cleanup(ts.Close)
	b := HTTP{BaseURL: ts.URL}
	cfg := expr.GoldenSweep()

	for _, code := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		status.Store(int64(code))
		_, err := b.RunShard(context.Background(), cfg)
		var bp *BackpressureError
		if !errors.As(err, &bp) {
			t.Fatalf("status %d: err = %v, want BackpressureError", code, err)
		}
		if bp.Status != code {
			t.Errorf("status %d: BackpressureError.Status = %d", code, bp.Status)
		}
		if bp.RetryAfter != 3*time.Second {
			t.Errorf("status %d: RetryAfter = %v, want 3s", code, bp.RetryAfter)
		}
	}

	status.Store(http.StatusInternalServerError)
	_, err := b.RunShard(context.Background(), cfg)
	var bp *BackpressureError
	if err == nil || errors.As(err, &bp) {
		t.Fatalf("500 must stay an ordinary failure, got %v", err)
	}
}

// TestParseRetryAfter pins both RFC 9110 Retry-After forms — delay-seconds
// and HTTP-date — plus the no-hint fallbacks for garbage and past dates.
// "Now" is injected via obs.Clock so the date arithmetic is deterministic.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2015, time.October, 21, 7, 28, 0, 0, time.UTC)
	clock := obs.NewFakeClock(now)
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"3", 3 * time.Second},
		{" 10 ", 10 * time.Second},
		{"0", 0},
		{"", 0},
		{"-5", 0},
		{"soon", 0},
		{"Wed, 21 Oct 2015 07:28:30 GMT", 30 * time.Second},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0},
		{"Wed, 21 Oct 2015 07:00:00 GMT", 0},
		{"Wed, 32 Oct 2015 07:28:00 GMT", 0},
		// Delays past time.Duration's range saturate instead of wrapping
		// into a wrong (or, past 2^63 ns, negative and so lost) hint.
		{"99999999999", math.MaxInt64},
		{"9300000000", math.MaxInt64},
		{"99999999999999999999", math.MaxInt64},
		{"-99999999999999999999", 0},
		{"Mon, 01 Jan 2990 00:00:00 GMT", math.MaxInt64},
	} {
		if got := parseRetryAfter(tc.in, clock); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// Nil clock means wall clock: a date far in the future must still yield
	// a positive delay without requiring a deterministic magnitude.
	if got := parseRetryAfter("Mon, 01 Jan 2990 00:00:00 GMT", nil); got <= 0 {
		t.Errorf("far-future HTTP-date with wall clock = %v, want > 0", got)
	}
}

// TestShedsDoNotCountTowardEviction pins the eviction exemption directly on
// the run loop: the only backend sheds its first evictAfter attempts in a
// row, which would evict it if sheds counted as failures — instead the shard
// retries on the same backend and succeeds.
func TestShedsDoNotCountTowardEviction(t *testing.T) {
	metrics := NewMetrics(obs.NewRegistry())
	var calls atomic.Int64
	b := &scriptedBackend{name: "sheddy", run: func(ctx context.Context, cfg expr.SweepConfig, yield func(expr.GraphResult) error) (*expr.ShardResult, error) {
		if calls.Add(1) <= evictAfter {
			return nil, &BackpressureError{Status: 429, RetryAfter: time.Millisecond, Msg: "overloaded"}
		}
		return expr.RunSweepShardStream(ctx, cfg, yield)
	}}
	co := &Coordinator{
		Shards:         1,
		Backends:       []Backend{b},
		Metrics:        metrics,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  5 * time.Millisecond,
	}
	if _, err := co.Run(context.Background(), expr.GoldenSweep()); err != nil {
		t.Fatalf("sweep failed; a shed must not evict the only backend: %v", err)
	}
	if got := metrics.sheds.Value(); got != evictAfter {
		t.Errorf("sheds counter = %d, want %d", got, evictAfter)
	}
	if got := metrics.evictions.Value(); got != 0 {
		t.Errorf("evictions counter = %d, want 0", got)
	}
	if got := metrics.retries.Value(); got != evictAfter {
		t.Errorf("retries counter = %d, want %d", got, evictAfter)
	}
}

// scriptedBackend is a minimal function-backed Backend for run-loop tests in
// this package (distribtest's richer harness lives downstream of distrib and
// cannot be imported here).
type scriptedBackend struct {
	name string
	run  func(ctx context.Context, cfg expr.SweepConfig, yield func(expr.GraphResult) error) (*expr.ShardResult, error)
}

func (b *scriptedBackend) Name() string { return b.name }
func (b *scriptedBackend) RunShardStream(ctx context.Context, cfg expr.SweepConfig, yield func(expr.GraphResult) error) (*expr.ShardResult, error) {
	return b.run(ctx, cfg, yield)
}

// TestRetryAfterFloorsBackoff pins the pacing contract: the backend's
// Retry-After is a floor under the computed backoff delay, observable as the
// coordinator's cumulative scheduled backoff.
func TestRetryAfterFloorsBackoff(t *testing.T) {
	metrics := NewMetrics(obs.NewRegistry())
	var calls atomic.Int64
	b := &scriptedBackend{name: "floor", run: func(ctx context.Context, cfg expr.SweepConfig, yield func(expr.GraphResult) error) (*expr.ShardResult, error) {
		if calls.Add(1) == 1 {
			return nil, &BackpressureError{Status: 503, RetryAfter: 120 * time.Millisecond, Msg: "draining"}
		}
		return expr.RunSweepShardStream(ctx, cfg, yield)
	}}
	co := &Coordinator{
		Shards:         1,
		Backends:       []Backend{b},
		Metrics:        metrics,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  2 * time.Millisecond,
	}
	if _, err := co.Run(context.Background(), expr.GoldenSweep()); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	// The one retry's scheduled delay must have been floored to Retry-After
	// (120ms), not the 1–2ms configured backoff.
	if got := metrics.backoffMs.Value(); got < 120 {
		t.Errorf("cumulative backoff = %dms, want >= 120ms (Retry-After floor)", got)
	}
}

// TestRetryAfterFloorIsCapped pins the cap on the Retry-After floor: a
// backend sheds one shard with a delay-seconds hint far past any sane wait
// while a second backend sits idle. A cooling shard has no attempt in
// flight, so nothing but the capped floor — one attempt's time limit — lets
// the retry happen: the sweep must finish promptly with the golden cells.
func TestRetryAfterFloorIsCapped(t *testing.T) {
	golden := goldenCSV(t)
	var calls atomic.Int64
	shedOnce := &scriptedBackend{name: "shed-once", run: func(ctx context.Context, cfg expr.SweepConfig, yield func(expr.GraphResult) error) (*expr.ShardResult, error) {
		if calls.Add(1) == 1 {
			return nil, &BackpressureError{Status: 429, RetryAfter: parseRetryAfter("99999999999", nil), Msg: "overloaded"}
		}
		return expr.RunSweepShardStream(ctx, cfg, yield)
	}}
	idle := &scriptedBackend{name: "idle", run: func(ctx context.Context, cfg expr.SweepConfig, yield func(expr.GraphResult) error) (*expr.ShardResult, error) {
		return expr.RunSweepShardStream(ctx, cfg, yield)
	}}
	const limit = 300 * time.Millisecond
	co := &Coordinator{
		Shards:         3,
		Backends:       []Backend{shedOnce, idle},
		ShardTimeout:   limit,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  2 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	start := time.Now()
	cells, err := co.Run(ctx, expr.GoldenSweep())
	if err != nil {
		t.Fatalf("sweep after an absurd Retry-After: %v (after %v)", err, time.Since(start))
	}
	if got := cellsCSV(t, cells); got != golden {
		t.Errorf("CSV differs from golden:\n--- golden\n%s\n--- got\n%s", golden, got)
	}
	if calls.Load() == 0 {
		t.Fatal("the shedding backend was never dispatched to; the scenario tests nothing")
	}
	if elapsed := time.Since(start); elapsed < limit {
		t.Errorf("retry came after %v, sooner than the capped %v floor", elapsed, limit)
	}
}

// TestGoldenSweepAgainstOverloadedServer is the end-to-end shed scenario: a
// real httpserver whose heavy class admits exactly one sweep shard at a time
// genuinely answers 429 (with Retry-After) to concurrent dispatches, the
// coordinator retries the shed shards as backpressure, and the merged cells
// still match a clean single-process run byte for byte.
func TestGoldenSweepAgainstOverloadedServer(t *testing.T) {
	srv, err := httpserver.NewServer(httpserver.Options{
		Service:    service.Config{Workers: 4},
		HeavyLimit: 1,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(srv.Routes(nil))
	t.Cleanup(ts.Close)

	cfg := expr.GoldenSweep()
	want, err := expr.RunSweep(cfg)
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}

	// Two fleet members share the server, so the coordinator dispatches two
	// shards to it at once — that concurrency is what makes the 1-slot heavy
	// class shed for real.
	metrics := NewMetrics(obs.NewRegistry())
	var sheds atomic.Int64
	co := &Coordinator{
		Shards:   3,
		Backends: []Backend{named{HTTP{BaseURL: ts.URL}, "a"}, named{HTTP{BaseURL: ts.URL}, "b"}},
		Metrics:  metrics,
		Log: func(format string, args ...any) {
			if strings.Contains(fmt.Sprintf(format, args...), "shed (backpressure)") {
				sheds.Add(1)
			}
		},
	}
	cells, err := co.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("sweep against overloaded server: %v", err)
	}
	var got, ref bytes.Buffer
	if err := expr.WriteSweepCSV(&got, expr.ZeroTimes(cells)); err != nil {
		t.Fatal(err)
	}
	if err := expr.WriteSweepCSV(&ref, expr.ZeroTimes(want)); err != nil {
		t.Fatal(err)
	}
	if got.String() != ref.String() {
		t.Errorf("CSV under real 429s differs from clean run:\n--- clean\n%s\n--- got\n%s", ref.String(), got.String())
	}
	if sheds.Load() == 0 {
		t.Errorf("no shard was shed; the scenario must exercise real 429 backpressure")
	}
	if metrics.sheds.Value() == 0 {
		t.Errorf("sheds counter = 0, want > 0")
	}
	if metrics.evictions.Value() != 0 {
		t.Errorf("evictions counter = %d, want 0 (sheds never evict)", metrics.evictions.Value())
	}
}

// named gives an HTTP backend a fleet name of its own, so two members can
// share one server.
type named struct {
	HTTP
	name string
}

func (b named) Name() string { return b.name }
