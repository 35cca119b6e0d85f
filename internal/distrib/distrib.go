// Package distrib coordinates a distributed Fig. 5/6 sweep: it partitions
// the sweep into shards (the stable per-graph assignment of
// expr.SweepConfig), fans the shards concurrently over a static fleet of
// backends — remote cpgserve instances via POST /v1/sweep, or in-process
// execution — and merges the partial results into the exact cells a
// single-process run produces, byte for byte.
//
// Every backend streams its shard graph by graph, and the one shard format
// is textio's NDJSON frame stream (header, graph frames, summary): it is the
// body of a POST /v1/sweep response and the content of a journal file alike,
// written by textio.WriteShard and read by textio.ReadShard. The reader makes
// every check of a shard's bytes; the HTTP backend and the journal then only
// compare the shard coordinates they expect, and the coordinator takes the
// result as it comes.
//
// A fault costs whole shards, never bytes of the result: the Coordinator
// bounds each attempt by a time limit, retries a failed shard from the start
// with bounded exponential backoff on the first idle backend, evicts a
// backend after consecutive failed attempts, and with a Journal writes every
// completed shard to disk, so a restarted sweep re-runs only the shards it
// had not finished.
package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/textio"
)

// BackpressureError reports a shard attempt shed by the backend's admission
// control (HTTP 429 overloaded, 503 draining) rather than failed. The
// coordinator retries it with its usual bounded backoff — honouring
// RetryAfter as a floor — but does NOT count it toward the backend's
// consecutive-failure eviction: a backend saying "not right now" is
// healthier than one saying nothing.
type BackpressureError struct {
	// Status is the HTTP status that signalled the shed (429 or 503).
	Status int
	// RetryAfter is the backend's requested minimum delay before retrying
	// (zero if the response carried no usable Retry-After header).
	RetryAfter time.Duration
	// Msg is the backend's error message, usually the JSON error envelope.
	Msg string
}

// Error implements error.
func (e *BackpressureError) Error() string {
	return fmt.Sprintf("backend shed the request (HTTP %d, retry after %v): %s", e.Status, e.RetryAfter, e.Msg)
}

// parseRetryAfter reads a Retry-After header value in either RFC 9110 form:
// delay-seconds (what this repo's servers emit) or an HTTP-date (what
// proxies and other servers may substitute). A date is converted to a delay
// against clock.Now (nil means wall clock); negative or past values clamp to
// zero, anything unparseable maps to zero, meaning "no hint", and a delay
// too large for a time.Duration saturates at the largest one.
func parseRetryAfter(h string, clock obs.Clock) time.Duration {
	h = strings.TrimSpace(h)
	if secs, err := strconv.ParseInt(h, 10, 64); err == nil || errors.Is(err, strconv.ErrRange) {
		switch {
		case secs <= 0:
			return 0
		case secs > int64(math.MaxInt64/time.Second):
			return math.MaxInt64
		}
		return time.Duration(secs) * time.Second
	}
	when, err := http.ParseTime(h)
	if err != nil {
		return 0
	}
	if clock == nil {
		clock = obs.WallClock{}
	}
	if d := when.Sub(clock.Now()); d > 0 {
		return d
	}
	return 0
}

// readErrorBody reads at most 4 KiB of an error response and returns the
// most useful message it can: the envelope's message when the prefix parses
// as the server's JSON error envelope {"error":{...}}, the raw trimmed bytes
// otherwise. Either way the remainder of the body is drained so the
// keep-alive connection returns to the pool.
func readErrorBody(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, 4<<10))
	drainBody(r)
	var env struct {
		Error struct {
			Status  int    `json:"status"`
			Message string `json:"message"`
		} `json:"error"`
	}
	//lint:allow strictdecode error bodies may come from proxies or older servers: best-effort envelope extraction with a raw-bytes fallback
	if err := json.Unmarshal(data, &env); err == nil && env.Error.Message != "" {
		return env.Error.Message
	}
	return string(bytes.TrimSpace(data))
}

// drainBody consumes the rest of an HTTP response body (bounded, so a
// misbehaving server cannot pin the coordinator) before it is closed. Go's
// transport only reuses a keep-alive connection whose body was read to EOF;
// closing early tears the connection down and forces a fresh dial on the
// next request — measurable churn across a long sweep's retries.
func drainBody(r io.Reader) {
	_, _ = io.Copy(io.Discard, io.LimitReader(r, 1<<20))
}

// DefaultShardTimeout bounds one shard attempt on one backend when
// Coordinator.ShardTimeout is zero. Without a bound, a wedged-but-connected
// server (stopped process, blackholed network) would block its shard forever
// and the retry-on-surviving-backends failover would never trigger; with
// one, the attempt fails after the timeout and the shard migrates.
const DefaultShardTimeout = 15 * time.Minute

// defaultClient is the package-level HTTP client shared by every HTTP
// backend whose Client field is nil. Unlike http.DefaultClient it pools
// connections explicitly and bounds the phases that can hang on a dead peer:
// dialing and response headers. A sweep server sends its response headers
// before it computes the shard, so the response-header timeout (sized to
// DefaultShardTimeout) only ever fires on a wedged peer.
var defaultClient = &http.Client{
	Transport: &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          64,
		MaxIdleConnsPerHost:   16,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   10 * time.Second,
		ExpectContinueTimeout: time.Second,
		ResponseHeaderTimeout: DefaultShardTimeout,
	},
}

// Backend executes one shard of a sweep, streaming it graph by graph.
type Backend interface {
	// Name identifies the backend in error messages and logs.
	Name() string
	// RunShardStream executes the shard selected by cfg, calling yield (when
	// non-nil) once per completed graph — serialized, never concurrently —
	// and returns the assembled shard result. A yield error aborts the run.
	// Implementations must honour ctx cancellation.
	RunShardStream(ctx context.Context, cfg expr.SweepConfig, yield func(expr.GraphResult) error) (*expr.ShardResult, error)
}

// InProcess executes shards in this process. With a Service attached the
// shard runs under the service's global worker budget (recommended when
// several shards run concurrently); without one it streams from
// expr.RunSweepShardStream with the config's own worker count.
type InProcess struct {
	Service *service.Service
}

// Name implements Backend.
func (InProcess) Name() string { return "in-process" }

// RunShardStream implements Backend.
func (b InProcess) RunShardStream(ctx context.Context, cfg expr.SweepConfig, yield func(expr.GraphResult) error) (*expr.ShardResult, error) {
	if b.Service != nil {
		sol, err := b.Service.SweepShard(ctx, cfg, yield)
		if err != nil {
			return nil, err
		}
		return sol.Shard, nil
	}
	return expr.RunSweepShardStream(ctx, cfg, yield)
}

// HTTP executes shards on a remote cpgserve instance via POST /v1/sweep.
type HTTP struct {
	// BaseURL is the server address, e.g. "http://host:8080" (a trailing
	// slash is tolerated).
	BaseURL string
	// Client is the HTTP client to use. Nil means the package's shared
	// pooled client (bounded dial and response-header timeouts), never
	// http.DefaultClient.
	Client *http.Client
	// Clock supplies "now" for converting HTTP-date Retry-After headers into
	// delays. Nil means the wall clock; tests inject an obs.FakeClock.
	Clock obs.Clock
}

// Name implements Backend.
func (b HTTP) Name() string { return b.BaseURL }

// client returns the backend's HTTP client, defaulting to the shared pooled
// one.
func (b HTTP) client() *http.Client {
	if b.Client != nil {
		return b.Client
	}
	return defaultClient
}

// baseURL returns BaseURL without trailing slashes.
func (b HTTP) baseURL() string {
	return strings.TrimRight(b.BaseURL, "/")
}

// RunShardStream implements Backend over POST /v1/sweep: it posts the strict
// v1 sweep request document and reads the NDJSON frame stream back through
// textio.ReadShard, which checks the sweep hash at the header and every graph
// before it is yielded, and turns a torn stream into a loud error. A stream
// for another shard of the sweep is rejected once it has been read.
func (b HTTP) RunShardStream(ctx context.Context, cfg expr.SweepConfig, yield func(expr.GraphResult) error) (*expr.ShardResult, error) {
	cfg = cfg.Normalize()
	reqDoc := textio.EncodeSweepRequest(cfg)
	wantHash, err := textio.SweepHash(reqDoc)
	if err != nil {
		return nil, err
	}
	var body bytes.Buffer
	if err := textio.WriteSweepRequest(&body, reqDoc); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.baseURL()+"/v1/sweep", &body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, b.errorFor(resp)
	}
	sh, err := textio.ReadShard(resp.Body, wantHash, cfg, yield)
	if err != nil {
		return nil, err
	}
	if sh.ShardIndex != cfg.ShardIndex || sh.ShardCount != cfg.ShardCount {
		return nil, fmt.Errorf("server returned shard %d/%d for requested shard %d/%d",
			sh.ShardIndex, sh.ShardCount, cfg.ShardIndex, cfg.ShardCount)
	}
	return sh, nil
}

// RunShard executes the shard for callers that want only the finished
// result: RunShardStream without a per-graph callback.
func (b HTTP) RunShard(ctx context.Context, cfg expr.SweepConfig) (*expr.ShardResult, error) {
	return b.RunShardStream(ctx, cfg, nil)
}

// errorFor turns a non-200 sweep response into the backend error for it —
// a BackpressureError for admission sheds, a plain error otherwise — after
// extracting the envelope message and draining the body for reuse.
func (b HTTP) errorFor(resp *http.Response) error {
	msg := readErrorBody(resp.Body)
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		return &BackpressureError{
			Status:     resp.StatusCode,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), b.Clock),
			Msg:        msg,
		}
	}
	return fmt.Errorf("POST /v1/sweep: %s: %s", resp.Status, msg)
}
