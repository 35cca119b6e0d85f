// Package stats provides the small set of statistics helpers used by the
// experiment harness: means, maxima and fractions.
package stats

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
