package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestGoldenRender pins the exposition text of a registry holding every
// instrument kind under a frozen fake clock: families sorted by name,
// children sorted by label set, histograms rendered as cumulative buckets +
// sum + count. Two scrapes of untouched state must be byte-identical.
func TestGoldenRender(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	reg := NewRegistry()

	c := reg.Counter("test_requests_total", "Requests served.")
	c.Add(41)
	c.Inc()

	cv := reg.CounterVec("test_codes_total", "Requests by code.", "endpoint", "code")
	cv.With("/v1/schedule", "2xx").Add(7)
	cv.With("/v1/schedule", "4xx").Inc()
	cv.With("/metrics", "2xx").Add(3)

	g := reg.GaugeVec("test_in_flight", "In-flight requests.").With()
	g.Inc()
	g.Inc()

	h := reg.HistogramVec("test_latency_seconds", "Request latency.", []float64{0.01, 0.1, 1}).With()
	start := clock.Now()
	clock.Advance(50 * time.Millisecond)
	h.Observe(clock.Now().Sub(start).Seconds())
	h.Observe(0.005)
	h.Observe(5)

	reg.GaugeFunc("test_budget", "Worker budget.", func() int64 { return 8 })

	want := strings.Join([]string{
		"# HELP test_budget Worker budget.",
		"# TYPE test_budget gauge",
		"test_budget 8",
		"# HELP test_codes_total Requests by code.",
		"# TYPE test_codes_total counter",
		`test_codes_total{code="2xx",endpoint="/metrics"} 3`,
		`test_codes_total{code="2xx",endpoint="/v1/schedule"} 7`,
		`test_codes_total{code="4xx",endpoint="/v1/schedule"} 1`,
		"# HELP test_in_flight In-flight requests.",
		"# TYPE test_in_flight gauge",
		"test_in_flight 2",
		"# HELP test_latency_seconds Request latency.",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="0.1"} 2`,
		`test_latency_seconds_bucket{le="1"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_sum 5.055",
		"test_latency_seconds_count 3",
		"# HELP test_requests_total Requests served.",
		"# TYPE test_requests_total counter",
		"test_requests_total 42",
	}, "\n") + "\n"

	var first, second bytes.Buffer
	if err := reg.WriteText(&first); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if got := first.String(); got != want {
		t.Errorf("render mismatch:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if err := reg.WriteText(&second); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if first.String() != second.String() {
		t.Errorf("two scrapes of untouched state differ:\n--- first\n%s\n--- second\n%s", first.String(), second.String())
	}
}

// TestHistogramBucketBoundaries pins the le-inclusive bucket semantics:
// an observation equal to a bound lands in that bound's bucket, one just
// above lands in the next, and everything beyond the last bound lands only
// in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.HistogramVec("edge_seconds", "Bucket edges.", []float64{1, 2, 4}).With()

	for _, v := range []float64{0, 1, 1.0000001, 2, 4, 4.0000001, 1e12} {
		h.Observe(v)
	}
	// Raw (non-cumulative) per-bucket expectations:
	//   le=1: {0, 1}            -> 2
	//   le=2: {1.0000001, 2}    -> 2
	//   le=4: {4}               -> 1
	//   +Inf: {4.0000001, 1e12} -> 2
	want := []int64{2, 2, 1, 2}
	for i, n := range want {
		if got := h.buckets[i].Load(); got != n {
			t.Errorf("bucket %d = %d observations, want %d", i, got, n)
		}
	}
	if h.Count() != 7 {
		t.Errorf("Count = %d, want 7", h.Count())
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, line := range []string{
		`edge_seconds_bucket{le="1"} 2`,
		`edge_seconds_bucket{le="2"} 4`,
		`edge_seconds_bucket{le="4"} 5`,
		`edge_seconds_bucket{le="+Inf"} 7`,
		"edge_seconds_count 7",
	} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Errorf("render missing %q:\n%s", line, buf.String())
		}
	}
}

// TestNegativeCounterAdd pins the monotonicity contract.
func TestNegativeCounterAdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Counter.Add(-1) must panic")
		}
	}()
	NewRegistry().Counter("mono_total", "x").Add(-1)
}

// TestConflictingRegistration: one name, two types is a programmer error.
func TestConflictingRegistration(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering dup_total as a gauge must panic")
		}
	}()
	reg.GaugeVec("dup_total", "x")
}

// TestIdempotentRegistration: registering the identical family twice returns
// the same instrument (component constructors may run more than once against
// a shared registry).
func TestIdempotentRegistration(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("same_total", "x")
	b := reg.Counter("same_total", "x")
	if a != b {
		t.Fatalf("identical registrations returned distinct counters")
	}
	va := reg.CounterVec("same_vec_total", "x", "l")
	vb := reg.CounterVec("same_vec_total", "x", "l")
	if va.With("v") != vb.With("v") {
		t.Fatalf("identical vec registrations returned distinct children")
	}
}

// TestConcurrentInstruments hammers one counter, gauge and histogram from
// many goroutines; run under -race this is the data-race proof, and the
// totals prove no update was lost.
func TestConcurrentInstruments(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("race_total", "x")
	g := reg.GaugeVec("race_gauge", "x").With()
	h := reg.HistogramVec("race_seconds", "x", []float64{0.5}).With()

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				h.Observe(float64(i%2) * 0.75)
				g.Dec()
				if i%100 == 0 {
					var buf bytes.Buffer
					if err := reg.WriteText(&buf); err != nil {
						t.Errorf("concurrent WriteText: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if c.Value() != workers*perWorker {
		t.Errorf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0 after balanced Inc/Dec", g.Value())
	}
	if h.Count() != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	if want := float64(workers) * perWorker / 2 * 0.75; h.Sum() != want {
		t.Errorf("histogram sum = %v, want %v", h.Sum(), want)
	}
}

// TestHandler serves the registry over HTTP with the exposition content
// type.
func TestHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("handler_total", "x").Inc()
	rec := httptest.NewRecorder()
	Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != textContentType {
		t.Errorf("content type = %q, want %q", ct, textContentType)
	}
	if !strings.Contains(rec.Body.String(), "handler_total 1\n") {
		t.Errorf("body missing counter:\n%s", rec.Body.String())
	}
}

// TestObserveAllocs pins the hot-path contract: a warmed instrument update
// never allocates.
func TestObserveAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.CounterVec("alloc_total", "x", "code").With("2xx")
	g := reg.GaugeVec("alloc_gauge", "x").With()
	h := reg.HistogramVec("alloc_seconds", "x", nil).With()
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Inc()
		h.Observe(0.001)
		g.Dec()
	}); n != 0 {
		t.Errorf("instrument updates allocate %v times per op, want 0", n)
	}
}

// TestFakeClock pins the deterministic clock used by every metric test.
func TestFakeClock(t *testing.T) {
	c := NewFakeClock(time.Unix(100, 0))
	if !c.Now().Equal(time.Unix(100, 0)) {
		t.Fatalf("Now = %v", c.Now())
	}
	c.Advance(1500 * time.Millisecond)
	if !c.Now().Equal(time.Unix(101, 500000000)) {
		t.Fatalf("Now after Advance = %v", c.Now())
	}
}
