// Package httpserver implements the HTTP surface of the scheduling service:
// the handlers behind cmd/cpgserve. It lives as an importable package (rather
// than inside the command) so tests, smoke harnesses and the distributed
// sweep coordinator's test backends can mount the exact production handler
// in-process via httptest.
//
// Endpoints:
//
//	POST /v1/schedule   schedule a problem document, return the solution
//	                    document (cache-aware)
//	POST /v1/sweep      execute one shard of a Fig. 5/6 sweep and stream its
//	                    raw per-graph results through textio.WriteShard
//	                    (header, one graph frame per completed graph,
//	                    trailing summary), the frame stream textio.ReadShard
//	                    checks
//	GET  /metrics       Prometheus text exposition of the request,
//	                    admission, service and cache metrics
//	GET  /healthz       liveness plus service counters ("draining" once
//	                    SetDraining, on SIGTERM in cpgserve)
//
// The request document is the whole request: every option travels in it
// (the problem's options, the sweep request's workers and options), and a
// request that carries a query string is refused with a 400 naming the
// document field to use. Every error is reported as a JSON envelope
// {"error":{"status":...,"message":...}}. Concurrent requests share the
// global worker budget: a /v1/schedule miss runs on one goroutine under one
// token, and a sweep request's workers are a wish the budget clamps, each
// token scheduling one graph at a time. A problem document has no worker
// count: options that carry "workers" get strict decoding's 400.
//
// # Admission control
//
// Endpoints are grouped into two classes — "light" (schedule: one problem
// each) and "heavy" (sweep: a whole shard of graphs) — each with a bounded
// concurrency and a live in-flight gauge. A request over the bound is shed
// immediately with 429, a Retry-After hint and the JSON error envelope,
// instead of stacking goroutines behind the worker-token budget until the
// client times out; during a drain window (SetDraining) both classes shed
// with 503 so a loaded-or-leaving backend is distinguishable from a dead
// one. Observability endpoints (/metrics, /healthz) are never shed — an
// overloaded server must stay diagnosable.
package httpserver

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/textio"
)

// Default admission parameters.
const (
	// DefaultRetryAfter is the Retry-After hint of a 429 overload shed: the
	// class bound usually clears within a request service time.
	DefaultRetryAfter = time.Second
	// DefaultDrainRetryAfter is the Retry-After hint of a 503 drain shed: a
	// draining server intends to leave, so clients should back off longer
	// (or better, go elsewhere).
	DefaultDrainRetryAfter = 5 * time.Second
)

// DefaultLightLimit is the light-class (schedule) concurrency bound
// for a given worker budget: generous, because light requests queue briefly
// on the token pool and memo hits bypass it entirely.
func DefaultLightLimit(budget int) int { return max(32, 8*budget) }

// DefaultHeavyLimit is the heavy-class (sweep shard) concurrency bound for a
// given worker budget: a shard monopolizes tokens for a long time, so only a
// small pipeline beyond the budget is admitted before shedding.
func DefaultHeavyLimit(budget int) int { return max(4, 2*budget) }

// Options parameterises a Server beyond the service config.
type Options struct {
	// Service configures the scheduling service (worker budget, memo size).
	Service service.Config
	// MaxBody bounds the accepted request body size in bytes (0 = 8 MiB).
	MaxBody int64
	// Clock is the latency-measurement time source (nil = obs.WallClock).
	Clock obs.Clock
	// LightLimit bounds concurrent schedule requests
	// (0 = DefaultLightLimit of the budget, negative = unlimited).
	LightLimit int
	// HeavyLimit bounds concurrent sweep-shard requests
	// (0 = DefaultHeavyLimit of the budget, negative = unlimited).
	HeavyLimit int
}

// epClass is one admission class: endpoints sharing a concurrency bound, an
// in-flight gauge and shed counters.
type epClass struct {
	limit        int64
	inflight     *obs.Gauge
	shedOverload *obs.Counter
	shedDrain    *obs.Counter
}

// Server holds the shared state of the HTTP handlers: one scheduling service
// (global worker budget and problem memo) and the metrics registry with the
// admission state.
type Server struct {
	svc      *service.Service
	maxBody  int64
	start    time.Time
	draining atomic.Bool

	metrics   *obs.Registry
	clock     obs.Clock
	light     *epClass
	heavy     *epClass
	reqCodes  *obs.CounterVec
	durations *obs.HistogramVec
}

// The Retry-After header values of the two sheds.
var (
	retryAfterOverload = retryAfterSeconds(DefaultRetryAfter)
	retryAfterDrain    = retryAfterSeconds(DefaultDrainRetryAfter)
)

// NewServer builds a Server from Options.
func NewServer(opts Options) (*Server, error) {
	svc, err := service.New(opts.Service)
	if err != nil {
		return nil, err
	}
	maxBody := opts.MaxBody
	if maxBody == 0 {
		maxBody = 8 << 20
	}
	clock := opts.Clock
	if clock == nil {
		clock = obs.WallClock{}
	}
	reg := obs.NewRegistry()
	s := &Server{
		svc:     svc,
		maxBody: maxBody,
		metrics: reg,
		clock:   clock,
	}
	s.start = clock.Now()
	budget := svc.Stats().Workers
	s.reqCodes = reg.CounterVec("cpg_http_requests_total",
		"HTTP requests served, by endpoint and status class.", "endpoint", "code")
	s.durations = reg.HistogramVec("cpg_http_request_duration_seconds",
		"HTTP request latency in seconds, by endpoint.", nil, "endpoint")
	inflight := reg.GaugeVec("cpg_http_in_flight",
		"In-flight requests, by endpoint class: the live admission-control state.", "class")
	sheds := reg.CounterVec("cpg_http_shed_total",
		"Requests shed by admission control, by endpoint class and reason (overload: class concurrency bound hit, 429; drain: server draining, 503).",
		"class", "reason")
	s.light = newEPClass("light", opts.LightLimit, DefaultLightLimit(budget), inflight, sheds)
	s.heavy = newEPClass("heavy", opts.HeavyLimit, DefaultHeavyLimit(budget), inflight, sheds)
	reg.GaugeFunc("cpg_http_uptime_seconds", "Seconds since the server started.",
		func() int64 { return int64(s.clock.Now().Sub(s.start).Seconds()) })
	svc.RegisterMetrics(reg)
	return s, nil
}

// newEPClass resolves one admission class: the configured bound (0 = the
// default for the budget, negative = unlimited) and its instruments.
func newEPClass(name string, limit, def int, inflight *obs.GaugeVec, sheds *obs.CounterVec) *epClass {
	bound := int64(limit)
	switch {
	case limit == 0:
		bound = int64(def)
	case limit < 0:
		bound = math.MaxInt64
	}
	return &epClass{
		limit:        bound,
		inflight:     inflight.With(name),
		shedOverload: sheds.With(name, "overload"),
		shedDrain:    sheds.With(name, "drain"),
	}
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up (a zero hint would mean "retry immediately", defeating the
// point of shedding).
func retryAfterSeconds(d time.Duration) string {
	secs := (d + time.Second - 1) / time.Second
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(int64(secs), 10)
}

// Stats exposes the underlying service counters (for startup logging and
// monitoring).
func (s *Server) Stats() service.Stats { return s.svc.Stats() }

// MetricsRegistry exposes the registry behind GET /metrics, so embedders
// (tests, a coordinator co-hosting its own metrics) can scrape or extend it.
func (s *Server) MetricsRegistry() *obs.Registry { return s.metrics }

// Routes builds the request multiplexer — every endpoint wrapped in the
// metrics middleware, the work endpoints additionally behind their class's
// admission gate — optionally wrapped with request logging.
func (s *Server) Routes(logger *log.Logger) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/schedule", s.instrument("/v1/schedule", s.light, s.handleSchedule))
	mux.Handle("POST /v1/sweep", s.instrument("/v1/sweep", s.heavy, s.handleSweep))
	mux.Handle("GET /healthz", s.instrument("/healthz", nil, s.handleHealthz))
	mux.Handle("GET /metrics", s.instrument("/metrics", nil, obs.Handler(s.metrics).ServeHTTP))
	if logger == nil {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		mux.ServeHTTP(w, r)
		logger.Printf("%s %s (%v)", r.Method, r.URL.Path, time.Since(t).Round(time.Microsecond))
	})
}

// endpoint is the metrics-and-admission middleware around one handler. Its
// instruments are resolved once, at Routes time, so the request path does no
// registry lookups and — with the pooled status writer — no allocations
// beyond what the wrapped handler itself does.
type endpoint struct {
	s     *Server
	cls   *epClass // nil: observability endpoint, never shed
	dur   *obs.Histogram
	codes [6]*obs.Counter // indexed by status/100 (1xx..5xx)
	next  http.HandlerFunc
}

// instrument wraps a handler with the middleware, pre-resolving every label
// child (so all request/duration families render from the first scrape, with
// zero values, independent of traffic).
func (s *Server) instrument(path string, cls *epClass, next http.HandlerFunc) http.Handler {
	e := &endpoint{s: s, cls: cls, dur: s.durations.With(path), next: next}
	for i := 1; i <= 5; i++ {
		e.codes[i] = s.reqCodes.With(path, strconv.Itoa(i)+"xx")
	}
	return e
}

// statusWriter captures the response status for the request counter and
// finishes the request's bookkeeping. Pooled: the middleware must not
// allocate on the hot path.
type statusWriter struct {
	w        http.ResponseWriter
	flusher  http.Flusher
	code     int
	e        *endpoint
	start    time.Time
	finished bool
}

var swPool = sync.Pool{New: func() any { return new(statusWriter) }}

func (sw *statusWriter) reset(w http.ResponseWriter, e *endpoint, start time.Time) {
	sw.w = w
	sw.flusher, _ = w.(http.Flusher)
	sw.code = 0
	sw.e = e
	sw.start = start
	sw.finished = false
}

// finish records the request's duration and status class and frees its
// class slot, once. The middleware calls it when the handler returns, and
// writeBody just before the write that completes a Content-Length body:
// a client can read such a body to its end before the handler returns, and
// must not see the server still counting the request as in flight.
func (sw *statusWriter) finish() {
	if sw.finished {
		return
	}
	sw.finished = true
	e := sw.e
	e.dur.Observe(e.s.clock.Now().Sub(sw.start).Seconds())
	code := sw.code
	if code == 0 {
		code = http.StatusOK
	}
	if i := code / 100; i >= 1 && i <= 5 {
		e.codes[i].Inc()
	}
	if e.cls != nil {
		e.cls.inflight.Dec()
	}
}

// release returns the writer to the pool. A handler that panicked never
// finished: its class slot is freed, and nothing is recorded.
func (sw *statusWriter) release() {
	if !sw.finished && sw.e.cls != nil {
		sw.e.cls.inflight.Dec()
	}
	sw.reset(nil, nil, time.Time{})
	swPool.Put(sw)
}

func (sw *statusWriter) Header() http.Header { return sw.w.Header() }

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.w.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.w.Write(b)
}

// Flush forwards to the underlying writer when it supports flushing (the
// NDJSON sweep stream needs it); flushable reports whether it does.
func (sw *statusWriter) Flush() {
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
}

func (sw *statusWriter) flushable() bool { return sw.flusher != nil }

func (e *endpoint) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := e.s
	if e.cls != nil {
		if s.draining.Load() {
			e.cls.shedDrain.Inc()
			e.codes[http.StatusServiceUnavailable/100].Inc()
			shed(w, http.StatusServiceUnavailable, retryAfterDrain,
				"server is draining: finishing in-flight work, not admitting new requests")
			return
		}
		if cur := e.cls.inflight.Inc(); cur > e.cls.limit {
			e.cls.inflight.Dec()
			e.cls.shedOverload.Inc()
			e.codes[http.StatusTooManyRequests/100].Inc()
			shed(w, http.StatusTooManyRequests, retryAfterOverload,
				"server overloaded: endpoint-class concurrency bound reached, retry after the hinted delay")
			return
		}
	}
	sw := swPool.Get().(*statusWriter)
	sw.reset(w, e, s.clock.Now())
	defer sw.release()
	e.next(sw, r)
	sw.finish()
}

// shed rejects a request at the admission gate: Retry-After plus the usual
// JSON error envelope, so clients and coordinators can tell backpressure
// (429/503, retry elsewhere or later) from failure (5xx, count it).
func shed(w http.ResponseWriter, status int, retryAfter, msg string) {
	w.Header().Set("Retry-After", retryAfter)
	writeError(w, status, errors.New(msg))
}

// errorDoc is the JSON error envelope of every non-2xx response.
type errorDoc struct {
	Error struct {
		Status  int    `json:"status"`
		Message string `json:"message"`
	} `json:"error"`
}

// requestErrorStatus distinguishes an over-limit body (413, the client can
// shrink the document or the operator can raise -max-body) from a malformed
// one (400).
func requestErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// scheduleErrorStatus maps a failed service run to an HTTP status:
// cancellations and deadlines become 408, a problem with more alternative
// paths than its bound or a merge that reached its safety bound 422 (the
// problem, not the server, is at fault), everything else 500.
func scheduleErrorStatus(err error) int {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	case errors.Is(err, cpg.ErrTooManyPaths) || errors.Is(err, core.ErrNotConverged):
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

func writeError(w http.ResponseWriter, status int, err error) {
	var doc errorDoc
	doc.Error.Status = status
	doc.Error.Message = err.Error()
	writeJSON(w, status, &doc)
}

// writeJSON renders v as compact JSON before it commits the status, so a value
// encoding/json rejects is answered with a 500 error envelope instead of an
// empty or truncated body under the intended status, and sends it with
// writeBody.
func writeJSON(w http.ResponseWriter, status int, v any) {
	err := textio.RenderJSON(v, func(body []byte) error {
		writeBody(w, status, body)
		return nil
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("rendering the response: %w", err))
	}
}

// writeBody sends a rendered JSON body in one write, under a Content-Length
// taken from it. The middleware finishes the request just before that write.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if sw, ok := w.(*statusWriter); ok {
		sw.finish()
	}
	// The status is sent: a failed write means the client has gone and
	// there is nobody left to report it to.
	_, _ = w.Write(body)
}

// handleSchedule answers a v1 problem document with its solution document,
// written straight from the result by textio.RenderSolution.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.URL.RawQuery != "" {
		writeError(w, http.StatusBadRequest, errors.New(
			"/v1/schedule takes no query parameters: set options.strategy in the problem document"))
		return
	}
	doc, err := textio.ReadProblem(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		writeError(w, requestErrorStatus(err), err)
		return
	}
	prob, err := service.FromDoc(doc)
	if err != nil {
		writeError(w, requestErrorStatus(err), err)
		return
	}
	sol, err := s.svc.Schedule(r.Context(), prob)
	if err != nil {
		writeError(w, scheduleErrorStatus(err), err)
		return
	}
	st := s.svc.Stats()
	cache := &textio.CacheDoc{
		Hit:         sol.CacheHit,
		Hits:        st.CacheHits,
		Misses:      st.CacheMisses,
		ProblemHash: sol.ProblemHash,
	}
	err = textio.RenderSolution(sol.Result, cache, func(body []byte) error {
		writeBody(w, http.StatusOK, body)
		return nil
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("rendering the response: %w", err))
	}
}

// handleSweep executes one shard of a Fig. 5/6 sweep under the service's
// global worker budget and streams the raw per-graph results through
// textio.WriteShard (header, one graph frame per completed graph, trailing
// summary), so a coordinator can merge shards from many servers into the
// exact cells of a single-process run. Request errors get the usual
// envelope; once the 200 and the header frame are committed, a failure
// travels in-band as an error frame — the strict reader turns a missing or
// mismatched summary into a loud error, never a silently short shard.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.URL.RawQuery != "" {
		writeError(w, http.StatusBadRequest, errors.New(
			"/v1/sweep takes no query parameters: set workers and options.strategy in the sweep request"))
		return
	}
	_, cfg, err := textio.ReadSweepRequest(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		writeError(w, requestErrorStatus(err), err)
		return
	}
	_, ok := w.(http.Flusher)
	if sw, isSW := w.(*statusWriter); isSW && !sw.flushable() {
		ok = false
	}
	if !ok {
		writeError(w, http.StatusNotImplemented, errors.New("streaming requires a flushable connection"))
		return
	}
	// The stream header needs the sweep hash before the first graph
	// completes.
	hash, err := textio.SweepHash(textio.EncodeSweepRequest(cfg))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// The 200 is committed: WriteShard reports a failure in-band, and there
	// is nobody else to report it to.
	_ = textio.WriteShard(w, hash, cfg, func(yield func(expr.GraphResult) error) error {
		_, err := s.svc.SweepShard(r.Context(), cfg, yield)
		return err
	})
}

// SetDraining flips the server's drain flag programmatically — what cpgserve
// does on SIGINT/SIGTERM, so new requests during the graceful-shutdown window
// get a 503 shed, which a sweep coordinator retries, instead of a refused
// connection.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// healthDoc is the /healthz response.
type healthDoc struct {
	Status   string `json:"status"`
	UptimeMs int64  `json:"uptimeMs"`
	Requests int64  `json:"requests"`
	Workers  int    `json:"workers"`
	Cache    struct {
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Entries int   `json:"entries"`
	} `json:"cache"`
	Sweeps struct {
		Requests int64 `json:"requests"`
	} `json:"sweeps"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.svc.Stats()
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	doc := &healthDoc{
		Status:   status,
		UptimeMs: s.clock.Now().Sub(s.start).Milliseconds(),
		Requests: st.Requests,
		Workers:  st.Workers,
	}
	doc.Cache.Hits = st.CacheHits
	doc.Cache.Misses = st.CacheMisses
	doc.Cache.Entries = st.CacheLen
	doc.Sweeps.Requests = st.SweepRequests
	writeJSON(w, http.StatusOK, doc)
}
