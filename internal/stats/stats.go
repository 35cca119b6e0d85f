// Package stats provides the small set of statistics helpers used by the
// experiment harness: means, maxima, fractions and simple aggregation of
// measurement series keyed by experiment cell.
package stats

import (
	"fmt"
	"sync"
)

// Mean returns the arithmetic mean of the values (0 for an empty slice).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Fraction returns the fraction of values for which pred is true.
func Fraction(values []float64, pred func(float64) bool) float64 {
	if len(values) == 0 {
		return 0
	}
	n := 0
	for _, v := range values {
		if pred(v) {
			n++
		}
	}
	return float64(n) / float64(len(values))
}

// Max returns the maximum value (0 for an empty slice).
func Max(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	m := values[0]
	for _, v := range values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Series accumulates values grouped by a string key; it is used to aggregate
// experiment measurements per (graph size, path count) cell. A Series is safe
// for concurrent use, but note that insertion order (and therefore the order
// of the values within a group, which matters for bit-exact floating-point
// aggregation) then depends on goroutine interleaving — callers that need
// reproducible aggregates should collect per-worker results first and Add
// them in a deterministic order.
type Series struct {
	mu     sync.Mutex
	values map[string][]float64
}

// NewSeries returns an empty series.
func NewSeries() *Series {
	return &Series{values: map[string][]float64{}}
}

// Add appends a value to the group identified by key.
func (s *Series) Add(key string, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.values[key] = append(s.values[key], v)
}

// Values returns the values of a group.
func (s *Series) Values(key string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.values[key]...)
}

// Mean returns the mean of a group.
func (s *Series) Mean(key string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Mean(s.values[key])
}

// Key builds a canonical cell key from the graph size and path count.
func Key(nodes, paths int) string { return fmt.Sprintf("n%d/p%d", nodes, paths) }
