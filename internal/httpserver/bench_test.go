package httpserver

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/service"
)

// benchServer builds a server for the middleware benchmarks.
func benchServer(b *testing.B) *Server {
	b.Helper()
	srv, err := NewServer(Options{Service: service.Config{Workers: 2}})
	if err != nil {
		b.Fatalf("NewServer: %v", err)
	}
	srv.Routes(nil)
	return srv
}

func benchDoc(b *testing.B) []byte {
	b.Helper()
	data, err := os.ReadFile("../../testdata/figure1_v1.json")
	if err != nil {
		b.Fatalf("reading figure1 problem document: %v", err)
	}
	return data
}

// benchDrive pushes the figure1 schedule request through a handler b.N
// times. The first request warms the memo, so the steady state measured is
// the cache-hit hot path — where middleware overhead would actually show.
func benchDrive(b *testing.B, h http.Handler, doc []byte) {
	b.Helper()
	body := bytes.NewReader(doc)
	req := httptest.NewRequest("POST", "/v1/schedule", body)
	req.Header.Set("Content-Type", "application/json")
	w := &nopResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(doc)
		for k := range w.h {
			delete(w.h, k)
		}
		h.ServeHTTP(w, req)
	}
}

// BenchmarkScheduleUninstrumented is the baseline: the raw schedule handler
// with no metrics middleware.
func BenchmarkScheduleUninstrumented(b *testing.B) {
	srv := benchServer(b)
	benchDrive(b, http.HandlerFunc(srv.handleSchedule), benchDoc(b))
}

// BenchmarkScheduleInstrumented is the same handler behind the metrics and
// admission middleware — the delta against the baseline is the middleware's
// total cost, and the allocs/op delta must be zero.
func BenchmarkScheduleInstrumented(b *testing.B) {
	srv := benchServer(b)
	benchDrive(b, srv.instrument("/v1/schedule", srv.light, srv.handleSchedule), benchDoc(b))
}

// BenchmarkMiddlewareOnly isolates the middleware around a no-op handler:
// its absolute per-request cost, independent of scheduling work.
func BenchmarkMiddlewareOnly(b *testing.B) {
	srv := benchServer(b)
	h := srv.instrument("/bench", srv.light, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	benchDrive(b, h, nil)
}

// BenchmarkMetricsScrape measures a full /metrics render of the server's
// registry.
func BenchmarkMetricsScrape(b *testing.B) {
	srv := benchServer(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := srv.MetricsRegistry().WriteText(&buf); err != nil {
			b.Fatalf("WriteText: %v", err)
		}
	}
}

// BenchmarkScheduleMiss times /v1/schedule misses through the instrumented
// handler, where the other benchmarks here time Figure-1 memo hits: two
// problems of each of the grid's 15 cells (seeds 1 and 2), served in turn by
// a two-worker server without a memo, so every request is scheduled, in a
// pooled workspace, and its body written from the result.
func BenchmarkScheduleMiss(b *testing.B) {
	var bodies [][]byte
	for _, nodes := range []int{60, 80, 120} {
		for _, paths := range []int{10, 12, 18, 24, 32} {
			bodies = append(bodies, gridBodies(b, nodes, paths, 2)...)
		}
	}
	srv, err := NewServer(Options{Service: service.Config{Workers: 2, CacheSize: -1}})
	if err != nil {
		b.Fatalf("NewServer: %v", err)
	}
	h := srv.Routes(nil)
	readers := make([]*bytes.Reader, len(bodies))
	reqs := make([]*http.Request, len(bodies))
	for i, body := range bodies {
		readers[i] = bytes.NewReader(body)
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/schedule", readers[i])
	}
	w := &nopRecorder{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(bodies)
		readers[k].Reset(bodies[k])
		w.code = 0
		h.ServeHTTP(w, reqs[k])
		if w.code != http.StatusOK {
			b.Fatalf("problem %d: status %d", k, w.code)
		}
	}
}
