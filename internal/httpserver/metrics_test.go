package httpserver

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// metricsServer builds a server with a frozen fake clock and the given
// admission bounds, returning it alongside its test listener.
func metricsServer(t *testing.T, opts Options) (*Server, *httptest.Server, *obs.FakeClock) {
	t.Helper()
	clock := obs.NewFakeClock(time.Unix(1_000_000, 0))
	opts.Clock = clock
	if opts.Service.Workers == 0 {
		opts.Service.Workers = 2
	}
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(srv.Routes(nil))
	t.Cleanup(ts.Close)
	return srv, ts, clock
}

func scrape(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	return string(body), resp
}

// TestMetricsGoldenFamilies pins the deterministic exposition: under a frozen
// fake clock, every family the server registers is present from the very
// first scrape (children are pre-resolved at Routes time), the content type
// is the exposition one, and two idle scrapes are byte-identical.
func TestMetricsGoldenFamilies(t *testing.T) {
	_, ts, _ := metricsServer(t, Options{})

	first, resp := scrape(t, ts.URL)
	if want := "text/plain; version=0.0.4; charset=utf-8"; resp.Header.Get("Content-Type") != want {
		t.Errorf("content type = %q, want %q", resp.Header.Get("Content-Type"), want)
	}
	for _, family := range []string{
		"cpg_http_requests_total",
		"cpg_http_request_duration_seconds",
		"cpg_http_in_flight",
		"cpg_http_shed_total",
		"cpg_http_uptime_seconds",
		"cpg_service_requests_total",
		"cpg_service_sweep_requests_total",
		"cpg_service_memo_hits_total",
		"cpg_service_memo_misses_total",
		"cpg_service_memo_entries",
		"cpg_service_worker_budget",
		"cpg_service_workers_busy",
	} {
		if !strings.Contains(first, "# TYPE "+family+" ") {
			t.Errorf("first scrape missing family %s", family)
		}
	}
	// The admission classes and every endpoint label are pre-resolved.
	for _, series := range []string{
		`cpg_http_in_flight{class="heavy"} 0`,
		`cpg_http_in_flight{class="light"} 0`,
		`cpg_http_shed_total{class="light",reason="overload"} 0`,
		`cpg_http_shed_total{class="heavy",reason="drain"} 0`,
		`cpg_http_requests_total{code="2xx",endpoint="/v1/schedule"} 0`,
		"cpg_service_worker_budget 2",
	} {
		if !strings.Contains(first, series+"\n") {
			t.Errorf("first scrape missing series %q", series)
		}
	}

	// A scrape over HTTP moves its own /metrics counters, so pin the
	// byte-identity contract directly: two renders of an untouched registry.
	var a, b strings.Builder
	srv := mustServer(t)
	if err := srv.MetricsRegistry().WriteText(&a); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if err := srv.MetricsRegistry().WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if a.String() != b.String() {
		t.Errorf("two renders of untouched registry differ:\n--- a\n%s\n--- b\n%s", a.String(), b.String())
	}
}

// mustServer builds a routed server (pre-resolving instrument children)
// without a listener.
func mustServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer(Options{
		Service: service.Config{Workers: 2},
		Clock:   obs.NewFakeClock(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	srv.Routes(nil)
	return srv
}

// TestMetricsCountsRequests pins the request counter and latency histogram:
// a served schedule request shows up under its endpoint with a 2xx code and
// the fake-clock latency lands in the right histogram bucket.
func TestMetricsCountsRequests(t *testing.T) {
	_, ts, _ := metricsServer(t, Options{})
	doc := figure1Doc(t)

	resp, body := postJSON(t, ts.URL+"/v1/schedule", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule status %d: %s", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/schedule", []byte("{"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d", resp.StatusCode)
	}

	text, _ := scrape(t, ts.URL)
	for _, series := range []string{
		`cpg_http_requests_total{code="2xx",endpoint="/v1/schedule"} 1`,
		`cpg_http_requests_total{code="4xx",endpoint="/v1/schedule"} 1`,
		`cpg_http_request_duration_seconds_count{endpoint="/v1/schedule"} 2`,
	} {
		if !strings.Contains(text, series+"\n") {
			t.Errorf("scrape missing series %q in:\n%s", series, grepFamilies(text, "cpg_http_"))
		}
	}
}

// grepFamilies filters a scrape down to lines of one prefix, for readable
// failure messages.
func grepFamilies(text, prefix string) string {
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, prefix) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// slowBody is a request body that stalls after its first byte until released
// — it parks a request inside its handler, occupying an admission slot, since
// the middleware counts a request in-flight from before the body is read
// until the response is written.
type slowBody struct {
	release <-chan struct{}
	sent    bool
}

func (s *slowBody) Read(p []byte) (int, error) {
	if !s.sent {
		s.sent = true
		copy(p, "{")
		return 1, nil
	}
	<-s.release
	return 0, io.EOF
}

// TestOverloadShedding pins the admission gate: with a light-class bound of
// 1, a request arriving while another is in flight is shed with 429, the
// JSON error envelope, the DefaultRetryAfter hint, a shed-counter increment
// — and once everything finishes, the in-flight gauge is back to zero.
func TestOverloadShedding(t *testing.T) {
	srv, ts, _ := metricsServer(t, Options{LightLimit: 1})

	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequest("POST", ts.URL+"/v1/schedule", &slowBody{release: release})
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	// Wait until the slow request occupies the one light slot.
	waitFor(t, func() bool { return srv.light.inflight.Value() == 1 })

	resp, body := postJSON(t, ts.URL+"/v1/schedule", figure1Doc(t))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	var envelope struct {
		Error struct {
			Status  int    `json:"status"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("shed body is not the JSON error envelope: %v\n%s", err, body)
	}
	if envelope.Error.Status != http.StatusTooManyRequests || envelope.Error.Message == "" {
		t.Errorf("envelope = %+v", envelope.Error)
	}

	close(release)
	<-done
	waitFor(t, func() bool { return srv.light.inflight.Value() == 0 })

	text, _ := scrape(t, ts.URL)
	for _, series := range []string{
		`cpg_http_shed_total{class="light",reason="overload"} 1`,
		`cpg_http_in_flight{class="light"} 0`,
		// 2: the shed 429 plus the slow request's own 400 (truncated JSON).
		`cpg_http_requests_total{code="4xx",endpoint="/v1/schedule"} 2`,
	} {
		if !strings.Contains(text, series+"\n") {
			t.Errorf("scrape missing series %q in:\n%s", series, grepFamilies(text, "cpg_http_"))
		}
	}
}

// TestDrainShedding pins the drain semantics: once SetDraining (what
// cpgserve does on SIGTERM), work endpoints shed with 503 + the
// DefaultDrainRetryAfter hint while /metrics and /healthz keep answering;
// SetDraining(false) restores admission.
func TestDrainShedding(t *testing.T) {
	srv, ts, _ := metricsServer(t, Options{})
	srv.SetDraining(true)

	resp, body := postJSON(t, ts.URL+"/v1/schedule", figure1Doc(t))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining schedule status = %d, want 503; body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Errorf("Retry-After = %q, want \"5\"", got)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sweep", []byte("{}"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining sweep status = %d, want 503", resp.StatusCode)
	}

	// Observability stays up.
	text, mresp := scrape(t, ts.URL)
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("draining /metrics status = %d", mresp.StatusCode)
	}
	for _, series := range []string{
		`cpg_http_shed_total{class="light",reason="drain"} 1`,
		`cpg_http_shed_total{class="heavy",reason="drain"} 1`,
	} {
		if !strings.Contains(text, series+"\n") {
			t.Errorf("scrape missing series %q in:\n%s", series, grepFamilies(text, "cpg_http_shed"))
		}
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || !strings.Contains(string(hbody), `"draining"`) {
		t.Fatalf("draining /healthz = %d %s", hresp.StatusCode, hbody)
	}

	srv.SetDraining(false)
	resp, body = postJSON(t, ts.URL+"/v1/schedule", figure1Doc(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-resume schedule status = %d: %s", resp.StatusCode, body)
	}
}

// TestConcurrentOverload hammers a 1-slot light class from many goroutines:
// every response is either 200 or 429 (never a 5xx), the request counters
// add up, and the in-flight gauge returns to zero. Run under -race this also
// exercises the middleware's pooled status writers concurrently.
func TestConcurrentOverload(t *testing.T) {
	srv, ts, _ := metricsServer(t, Options{LightLimit: 1})
	doc := figure1Doc(t)

	const clients = 16
	var ok, shed, other int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/schedule", doc)
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				shed++
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("429 without Retry-After")
				}
			default:
				other++
				t.Errorf("unexpected status %d: %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()

	if ok < 1 {
		t.Errorf("no request succeeded (ok=%d shed=%d other=%d)", ok, shed, other)
	}
	if ok+shed != clients || other != 0 {
		t.Errorf("responses: ok=%d shed=%d other=%d, want ok+shed=%d", ok, shed, other, clients)
	}
	if got := srv.light.inflight.Value(); got != 0 {
		t.Errorf("in-flight gauge = %d after all requests finished, want 0", got)
	}
	if got := srv.light.shedOverload.Value(); got != shed {
		t.Errorf("shed counter = %d, want %d", got, shed)
	}
}

// probeWriter is a ResponseWriter that runs probe when the body is written.
type probeWriter struct {
	*httptest.ResponseRecorder
	probe func()
}

func (p *probeWriter) Write(b []byte) (int, error) {
	p.probe()
	return p.ResponseRecorder.Write(b)
}

// TestRequestFinishedBeforeBody pins the order that lets a client trust the
// server's gauges once it has read a response. A body with a Content-Length
// can reach the client before the handler returns, so the middleware counts
// the request and frees its class slot before the write that sends it.
func TestRequestFinishedBeforeBody(t *testing.T) {
	srv := mustServer(t)
	ok := srv.reqCodes.With("/v1/schedule", "2xx")
	var inflight, counted int64 = -1, -1
	w := &probeWriter{ResponseRecorder: httptest.NewRecorder()}
	w.probe = func() { inflight, counted = srv.light.inflight.Value(), ok.Value() }
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(string(figure1Doc(t))))
	srv.Routes(nil).ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("schedule status %d: %s", w.Code, w.Body)
	}
	if inflight != 0 || counted != 1 {
		t.Errorf("at the body write: in-flight gauge %d, 2xx counter %d; want 0 and 1", inflight, counted)
	}
	if got := srv.light.inflight.Value(); got != 0 {
		t.Errorf("in-flight gauge %d after the request, want 0", got)
	}
	if got := ok.Value(); got != 1 {
		t.Errorf("2xx counter %d after the request, want 1 (counted once)", got)
	}
}

// TestMiddlewareAllocs pins the hot-path contract of the middleware itself:
// wrapping a no-op handler, a warmed request through instrument() allocates
// nothing beyond what net/http does — measured here with a recorder and a
// pre-built request, the middleware's own contribution must be zero.
func TestMiddlewareAllocs(t *testing.T) {
	srv := mustServer(t)
	h := srv.instrument("/bench", srv.light, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	req := httptest.NewRequest("GET", "/bench", nil)
	w := &nopResponseWriter{h: make(http.Header)}
	// Warm the pool.
	h.ServeHTTP(w, req)
	if n := testing.AllocsPerRun(1000, func() {
		h.ServeHTTP(w, req)
	}); n != 0 {
		t.Errorf("middleware allocates %v times per request, want 0", n)
	}
}

// nopResponseWriter is an allocation-free ResponseWriter for the middleware
// alloc pin (httptest.ResponseRecorder allocates internally).
type nopResponseWriter struct{ h http.Header }

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) WriteHeader(int)             {}
func (w *nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }

// nopRecorder records only the status and is deliberately NOT a Flusher.
type nopRecorder struct {
	h    http.Header
	code int
}

func (w *nopRecorder) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header)
	}
	return w.h
}
func (w *nopRecorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *nopRecorder) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(b), nil
}

// waitFor polls a condition with a deadline — used only to sequence test
// goroutines, never to assert timing.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRetryAfterSeconds pins the header rendering: whole seconds, rounded
// up, never zero.
func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{5 * time.Second, "5"},
	} {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// TestDefaultLimits pins the budget-derived admission defaults.
func TestDefaultLimits(t *testing.T) {
	for _, tc := range []struct{ budget, light, heavy int }{
		{1, 32, 4},
		{4, 32, 8},
		{8, 64, 16},
	} {
		if got := DefaultLightLimit(tc.budget); got != tc.light {
			t.Errorf("DefaultLightLimit(%d) = %d, want %d", tc.budget, got, tc.light)
		}
		if got := DefaultHeavyLimit(tc.budget); got != tc.heavy {
			t.Errorf("DefaultHeavyLimit(%d) = %d, want %d", tc.budget, got, tc.heavy)
		}
	}
}
