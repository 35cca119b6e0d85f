// Package httpserver implements the HTTP surface of the scheduling service:
// the handlers behind cmd/cpgserve. It lives as an importable package (rather
// than inside the command) so tests, smoke harnesses and the distributed
// sweep coordinator's test backends can mount the exact production handler
// in-process via httptest.
//
// Endpoints:
//
//	POST /v1/schedule?workers=N   schedule a problem document, return the
//	                              solution document (cache-aware); an optional
//	                              &strategy= overrides the document's per-path
//	                              scheduling strategy (critical-path or
//	                              tabu); unknown names get a 400 envelope
//	POST /v1/simulate?cond=C=1    schedule, then re-enact the matching
//	                              alternative paths against the table
//	POST /v1/sweep?workers=N      execute one shard of a Fig. 5/6 sweep and
//	                              stream its raw per-graph results through
//	                              textio.WriteShard (header, one graph frame
//	                              per completed graph, trailing summary), the
//	                              frame stream textio.ReadShard checks
//	GET  /metrics                 Prometheus text exposition of the request,
//	                              admission, service and cache metrics
//	GET  /healthz                 liveness plus service counters ("draining"
//	                              once SetDraining, on SIGTERM in cpgserve)
//
// Every error is reported as a JSON envelope {"error":{"status":...,
// "message":...}}. The per-request ?workers= limit is clamped by the global
// budget: concurrent requests share the budget's tokens in total.
//
// # Admission control
//
// Endpoints are grouped into two classes — "light" (schedule, simulate: one
// problem each) and "heavy" (sweep: a whole shard of graphs) — each with a
// bounded concurrency and a live in-flight gauge. A request over the bound
// is shed immediately with 429, a Retry-After hint and the JSON error
// envelope, instead of stacking goroutines behind the worker-token budget
// until the client times out; during a drain window (SetDraining) both
// classes shed with 503 so a loaded-or-leaving backend is distinguishable
// from a dead one. Observability endpoints (/metrics, /healthz) are never
// shed — an overloaded server must stay diagnosable.
package httpserver

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
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

// DefaultLightLimit is the light-class (schedule/simulate) concurrency bound
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
	// Metrics is the registry the server's instruments are registered on
	// (nil = a fresh private registry, retrievable via MetricsRegistry).
	Metrics *obs.Registry
	// Clock is the latency-measurement time source (nil = obs.WallClock).
	Clock obs.Clock
	// LightLimit bounds concurrent schedule/simulate requests
	// (0 = DefaultLightLimit of the budget, negative = unlimited).
	LightLimit int
	// HeavyLimit bounds concurrent sweep-shard requests
	// (0 = DefaultHeavyLimit of the budget, negative = unlimited).
	HeavyLimit int
	// RetryAfter and DrainRetryAfter are the Retry-After hints of 429
	// overload and 503 drain sheds (0 = the defaults above).
	RetryAfter      time.Duration
	DrainRetryAfter time.Duration
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
// (global worker budget, problem memo and warm-start cache) and the metrics
// registry with the admission state.
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
	// Pre-rendered Retry-After header values (whole seconds, rounded up).
	retryAfterOverload string
	retryAfterDrain    string
}

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
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	retryAfter := opts.RetryAfter
	if retryAfter <= 0 {
		retryAfter = DefaultRetryAfter
	}
	drainRetryAfter := opts.DrainRetryAfter
	if drainRetryAfter <= 0 {
		drainRetryAfter = DefaultDrainRetryAfter
	}
	s := &Server{
		svc:                svc,
		maxBody:            maxBody,
		metrics:            reg,
		clock:              clock,
		retryAfterOverload: retryAfterSeconds(retryAfter),
		retryAfterDrain:    retryAfterSeconds(drainRetryAfter),
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
	mux.Handle("POST /v1/simulate", s.instrument("/v1/simulate", s.light, s.handleSimulate))
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
// writeJSON just before the write that completes a Content-Length body:
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
			shed(w, http.StatusServiceUnavailable, s.retryAfterDrain,
				"server is draining: finishing in-flight work, not admitting new requests")
			return
		}
		if cur := e.cls.inflight.Inc(); cur > e.cls.limit {
			e.cls.inflight.Dec()
			e.cls.shedOverload.Inc()
			e.codes[http.StatusTooManyRequests/100].Inc()
			shed(w, http.StatusTooManyRequests, s.retryAfterOverload,
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
// cancellations and deadlines become 408, everything else 500.
func scheduleErrorStatus(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusRequestTimeout
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
// empty or truncated body under the intended status, and the body goes out
// in one write under a Content-Length taken from the rendering. The
// middleware finishes the request just before that write.
func writeJSON(w http.ResponseWriter, status int, v any) {
	err := textio.RenderJSON(v, func(body []byte) error {
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(status)
		if sw, ok := w.(*statusWriter); ok {
			sw.finish()
		}
		// The status is sent: a failed write means the client has gone
		// and there is nobody left to report it to.
		_, _ = w.Write(body)
		return nil
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("rendering the response: %w", err))
	}
}

// workersParam parses the optional ?workers= per-request limit.
func workersParam(r *http.Request) (int, bool, error) {
	q := r.URL.Query().Get("workers")
	if q == "" {
		return 0, false, nil
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		return 0, false, fmt.Errorf("malformed workers parameter %q (want a non-negative integer)", q)
	}
	return n, true, nil
}

// readProblem parses the request body as a strict v1 problem document and
// applies the optional ?workers= per-request limit.
func (s *Server) readProblem(w http.ResponseWriter, r *http.Request) (*service.Problem, error) {
	doc, err := textio.ReadProblem(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		return nil, err
	}
	prob, err := service.FromDoc(doc)
	if err != nil {
		return nil, err
	}
	if n, ok, err := workersParam(r); err != nil {
		return nil, err
	} else if ok {
		prob.Options.Workers = n
	}
	if q := r.URL.Query().Get("strategy"); q != "" {
		name, err := textio.ParseStrategy(q)
		if err != nil {
			return nil, err
		}
		prob.Options.Strategy = name
	}
	return prob, nil
}

// schedule runs one problem through the service, translating context
// cancellation and scheduling failures into HTTP errors.
func (s *Server) schedule(w http.ResponseWriter, r *http.Request) (*service.Solution, bool) {
	prob, err := s.readProblem(w, r)
	if err != nil {
		writeError(w, requestErrorStatus(err), err)
		return nil, false
	}
	sol, err := s.svc.Schedule(r.Context(), prob)
	if err != nil {
		writeError(w, scheduleErrorStatus(err), err)
		return nil, false
	}
	return sol, true
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	sol, ok := s.schedule(w, r)
	if !ok {
		return
	}
	out := textio.EncodeSolution(sol.Result)
	st := s.svc.Stats()
	out.Cache = &textio.CacheDoc{
		Hit:         sol.CacheHit,
		Hits:        st.CacheHits,
		Misses:      st.CacheMisses,
		ProblemHash: sol.ProblemHash,
	}
	writeJSON(w, http.StatusOK, out)
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
	_, cfg, err := textio.ReadSweepRequest(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		writeError(w, requestErrorStatus(err), err)
		return
	}
	if n, ok, err := workersParam(r); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	} else if ok {
		cfg.Workers = n
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

// activationDoc is one activated activity of a simulated trace.
type activationDoc struct {
	Name  string `json:"name"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
}

// traceDoc is the re-enactment of one alternative path.
type traceDoc struct {
	Label       string          `json:"label"`
	Delay       int64           `json:"delay"`
	Violations  []string        `json:"violations,omitempty"`
	Activations []activationDoc `json:"activations"`
}

// simulateDoc is the response of /v1/simulate.
type simulateDoc struct {
	Version  string     `json:"version"`
	Name     string     `json:"name"`
	DeltaM   int64      `json:"deltaM"`
	DeltaMax int64      `json:"deltaMax"`
	Traces   []traceDoc `json:"traces"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	sol, ok := s.schedule(w, r)
	if !ok {
		return
	}
	g, a := sol.Graph, sol.Arch
	// An empty ?cond= parses to the empty cube, which every path implies.
	spec := r.URL.Query().Get("cond")
	label, err := textio.ParseConds(g, spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	out := &simulateDoc{
		Version:  textio.ProblemVersion,
		Name:     g.Name(),
		DeltaM:   sol.DeltaM,
		DeltaMax: sol.DeltaMax,
	}
	for _, p := range sol.Paths {
		if !p.Label.Implies(label) {
			continue
		}
		// The service keeps no subgraphs: build the selected path's.
		tr, err := sim.RunSubgraph(g.Subgraph(g.PathFor(p.Label)), a, sol.Table)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		td := traceDoc{Label: p.Label.Format(g.CondName), Delay: tr.Delay}
		for _, v := range tr.Violations {
			td.Violations = append(td.Violations, v.String())
		}
		for _, act := range tr.Activations {
			k := act.Key
			name := k.String()
			if k.IsCond {
				name = "broadcast " + g.CondName(k.Cond)
			} else if p := g.Process(k.Proc); p != nil {
				name = p.Name
			}
			td.Activations = append(td.Activations, activationDoc{Name: name, Start: act.Start, End: act.End})
		}
		sortActivations(td.Activations)
		out.Traces = append(out.Traces, td)
	}
	if len(out.Traces) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("no alternative path matches %q", spec))
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func sortActivations(acts []activationDoc) {
	slices.SortFunc(acts, func(a, b activationDoc) int {
		if a.Start != b.Start {
			if a.Start < b.Start {
				return -1
			}
			return 1
		}
		switch {
		case a.Name < b.Name:
			return -1
		case a.Name > b.Name:
			return 1
		}
		return 0
	})
}

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
