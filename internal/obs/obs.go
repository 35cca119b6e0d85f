// Package obs is the repository's dependency-free observability core: atomic
// Counter/Gauge/Histogram instruments, a Registry that renders them in the
// Prometheus text exposition format, and an injectable Clock so everything
// except the one documented wall-clock site stays deterministic and testable.
//
// Design constraints, in order:
//
//   - Zero allocations on instrumented hot paths. Counters and gauges are a
//     single atomic word; histograms are fixed atomic bucket arrays with a
//     CAS-added float sum. Labelled children are resolved once, at handler
//     construction time (Vec.With), never per request.
//   - Deterministic rendering. A scrape walks the registry's families in
//     sorted name order and each family's children in sorted label order, so
//     two scrapes of the same state are byte-identical — the detmap-clean
//     collect-then-sort idiom, by construction.
//   - No wall-clock reads outside WallClock.Now. Latency measurement goes
//     through the Clock interface; production wires WallClock (the single
//     documented //lint:allow nowallclock site of this package) and tests
//     wire a manually advanced FakeClock, so metric tests never race real
//     time.
//
// The package deliberately implements only what the repository needs — no
// summaries, no exemplars, no push protocols — but the text format it emits
// is the standard one, parseable by Prometheus and its ecosystem.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the time source of latency measurements. Production code uses
// WallClock; deterministic tests use a FakeClock advanced by hand.
type Clock interface {
	Now() time.Time
}

// WallClock reads the real wall clock: the production Clock, and the single
// sanctioned wall-clock read of this package.
type WallClock struct{}

// Now implements Clock.
func (WallClock) Now() time.Time {
	//lint:allow nowallclock the one production time source behind the Clock interface: latency histograms measure real elapsed time by definition, and every consumer can swap in a FakeClock
	return time.Now()
}

// FakeClock is a manually advanced Clock for deterministic tests. The zero
// value starts at the zero time; all methods are safe for concurrent use.
type FakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewFakeClock returns a FakeClock frozen at start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{t: start}
}

// Now implements Clock: it returns the frozen time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the frozen time forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// Counter is a monotonically increasing value (requests served, shards
// retried). The zero value is ready to use; all methods are safe for
// concurrent use and allocation-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters are monotonic: negative n panics.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: negative Counter.Add")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down (in-flight requests, queue
// depth). The zero value is ready to use; all methods are safe for
// concurrent use and allocation-free.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one and returns the new value — the combination an admission
// gate needs atomically ("am I over the bound now that I'm in?").
func (g *Gauge) Inc() int64 { return g.v.Add(1) }

// Dec subtracts one and returns the new value.
func (g *Gauge) Dec() int64 { return g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefLatencyBuckets are the default histogram bounds for request latency in
// seconds: 100µs to 10s, roughly geometric — wide enough for a memo hit and
// a full sweep shard alike.
func DefLatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
		0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// Histogram counts observations into cumulative buckets with fixed upper
// bounds, Prometheus-style: an observation v lands in every bucket whose
// bound is >= v (le is inclusive), plus the implicit +Inf bucket. Construct
// with Registry.HistogramVec; Observe is lock-free and allocation-free.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; +Inf implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the sum, CAS-added
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	// Copy: the caller may reuse its slice.
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (≤ ~20) and the branch pattern is
	// predictable, so this beats a binary search on the hot path and never
	// allocates.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }
