package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(Mean(nil), 0) {
		t.Fatalf("Mean(nil) != 0")
	}
	if !almost(Mean([]float64{2, 4, 6}), 4) {
		t.Fatalf("Mean wrong")
	}
}

func TestFraction(t *testing.T) {
	vals := []float64{0, 0, 1, 2}
	if !almost(Fraction(vals, func(v float64) bool { return v == 0 }), 0.5) {
		t.Fatalf("Fraction wrong")
	}
	if !almost(Fraction(nil, func(float64) bool { return true }), 0) {
		t.Fatalf("Fraction(nil) != 0")
	}
}

func TestMax(t *testing.T) {
	if !almost(Max([]float64{3, -1, 7}), 7) || !almost(Max([]float64{-3, -1}), -1) {
		t.Fatalf("Max wrong")
	}
	if !almost(Max(nil), 0) {
		t.Fatalf("Max of an empty slice must be 0")
	}
}

func TestPropertyMeanBetweenMinAndMax(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r)
		}
		m := Mean(vals)
		return m >= slices.Min(vals)-1e-9 && m <= Max(vals)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
