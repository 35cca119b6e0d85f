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

func TestSeries(t *testing.T) {
	s := NewSeries()
	s.Add(Key(60, 10), 1)
	s.Add(Key(60, 10), 3)
	s.Add(Key(80, 10), 5)
	if got := s.Values("n60/p10"); len(got) != 2 || got[0] != 1 || got[1] != 3 || !almost(s.Mean("n60/p10"), 2) {
		t.Fatalf("group aggregation wrong: %v", got)
	}
	if got := s.Values("n80/p10"); len(got) != 1 || got[0] != 5 {
		t.Fatalf("Values wrong: %v", got)
	}
	if len(s.Values("missing")) != 0 {
		t.Fatalf("missing group must be empty")
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
