package cond

import (
	"strings"
	"testing"
)

// This file carries a test-only copy of the sorted-literal-slice Cube
// implementation that the bitset representation replaced, and a fuzzer that
// drives both through the same operations. The reference is deliberately the
// old production code (modulo renaming): any divergence the fuzzer finds is a
// semantic regression of the bitset algebra, not a test artifact.

// refCube is the retired slice-backed cube: literals sorted by condition, at
// most one per condition, empty slice meaning true.
type refCube struct {
	lits []Lit
}

func newRefCube(lits ...Lit) (refCube, bool) {
	if len(lits) == 0 {
		return refCube{}, true
	}
	out := make([]Lit, 0, len(lits))
	for _, l := range lits {
		i := len(out)
		for i > 0 && out[i-1].Cond > l.Cond {
			i--
		}
		if i > 0 && out[i-1].Cond == l.Cond {
			if out[i-1].Val != l.Val {
				return refCube{}, false
			}
			continue
		}
		out = append(out, Lit{})
		copy(out[i+1:], out[i:])
		out[i] = l
	}
	return refCube{lits: out}, true
}

func (c refCube) with(x Cond, v bool) (refCube, bool) {
	i := 0
	for i < len(c.lits) && c.lits[i].Cond < x {
		i++
	}
	if i < len(c.lits) && c.lits[i].Cond == x {
		if c.lits[i].Val != v {
			return refCube{}, false
		}
		return c, true
	}
	n := make([]Lit, len(c.lits)+1)
	copy(n, c.lits[:i])
	n[i] = Lit{Cond: x, Val: v}
	copy(n[i+1:], c.lits[i:])
	return refCube{lits: n}, true
}

func (c refCube) without(x Cond) refCube {
	for i, l := range c.lits {
		if l.Cond == x {
			n := make([]Lit, 0, len(c.lits)-1)
			n = append(n, c.lits[:i]...)
			n = append(n, c.lits[i+1:]...)
			return refCube{lits: n}
		}
	}
	return c
}

func (c refCube) and(o refCube) (refCube, bool) {
	n := make([]Lit, 0, len(c.lits)+len(o.lits))
	i, j := 0, 0
	for i < len(c.lits) && j < len(o.lits) {
		a, b := c.lits[i], o.lits[j]
		switch {
		case a.Cond < b.Cond:
			n = append(n, a)
			i++
		case a.Cond > b.Cond:
			n = append(n, b)
			j++
		default:
			if a.Val != b.Val {
				return refCube{}, false
			}
			n = append(n, a)
			i, j = i+1, j+1
		}
	}
	n = append(n, c.lits[i:]...)
	n = append(n, o.lits[j:]...)
	return refCube{lits: n}, true
}

func (c refCube) compatible(o refCube) bool {
	i, j := 0, 0
	for i < len(c.lits) && j < len(o.lits) {
		a, b := c.lits[i], o.lits[j]
		switch {
		case a.Cond < b.Cond:
			i++
		case a.Cond > b.Cond:
			j++
		default:
			if a.Val != b.Val {
				return false
			}
			i, j = i+1, j+1
		}
	}
	return true
}

func (c refCube) implies(o refCube) bool {
	i := 0
	for _, b := range o.lits {
		for i < len(c.lits) && c.lits[i].Cond < b.Cond {
			i++
		}
		if i >= len(c.lits) || c.lits[i].Cond != b.Cond || c.lits[i].Val != b.Val {
			return false
		}
		i++
	}
	return true
}

func (c refCube) equal(o refCube) bool {
	if len(c.lits) != len(o.lits) {
		return false
	}
	for i, l := range c.lits {
		if o.lits[i] != l {
			return false
		}
	}
	return true
}

func (c refCube) compare(o refCube) int {
	a, b := c.lits, o.lits
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].Cond != b[i].Cond {
			return int(a[i].Cond) - int(b[i].Cond)
		}
		if a[i].Val != b[i].Val {
			if a[i].Val {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

func (c refCube) format() string {
	if len(c.lits) == 0 {
		return "true"
	}
	parts := make([]string, 0, len(c.lits))
	for _, l := range c.lits {
		parts = append(parts, l.String())
	}
	return strings.Join(parts, "&")
}

// litsFromBytes decodes a byte string into a literal sequence. Conditions are
// folded into a small range so the fuzzer hits duplicates, contradictions and
// overlaps between the two cubes often, with an occasional high identifier to
// exercise the upper mask bits.
func litsFromBytes(data []byte) []Lit {
	lits := make([]Lit, 0, len(data))
	for _, b := range data {
		x := Cond((b >> 1) % 12)
		if b >= 0xF0 {
			x = Cond(MaxConds - 1 - int(b%4))
		}
		lits = append(lits, Lit{Cond: x, Val: b&1 == 1})
	}
	return lits
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}

// FuzzCubeBitsetEquivalence drives random literal sets through both the
// bitset Cube and the retired slice implementation and demands identical
// observable behaviour: construction validity, Implies, Compatible, And,
// Compare ordering, Format output, With/Without, and == (the equality a
// cube map key uses) exactly for equal cubes.
func FuzzCubeBitsetEquivalence(f *testing.F) {
	f.Add([]byte{0x02, 0x05}, []byte{0x04}, uint8(1))
	f.Add([]byte{0x03, 0x02}, []byte{0x03, 0x07, 0x08}, uint8(3))
	f.Add([]byte{}, []byte{0xF1, 0xF2}, uint8(0))
	f.Add([]byte{0xFF, 0x01, 0x10}, []byte{0xFF, 0x00}, uint8(63))
	f.Fuzz(func(t *testing.T, da, db []byte, wb uint8) {
		la, lb := litsFromBytes(da), litsFromBytes(db)
		a, okA := NewCube(la...)
		ra, rokA := newRefCube(la...)
		if okA != rokA {
			t.Fatalf("NewCube(%v) ok=%v, reference ok=%v", la, okA, rokA)
		}
		b, okB := NewCube(lb...)
		rb, rokB := newRefCube(lb...)
		if okB != rokB {
			t.Fatalf("NewCube(%v) ok=%v, reference ok=%v", lb, okB, rokB)
		}
		if !okA || !okB {
			return // contradictory input rejected identically by both
		}

		if got, want := a.Format(nil), ra.format(); got != want {
			t.Fatalf("Format(%v) = %q, reference %q", la, got, want)
		}
		if got, want := a.Implies(b), ra.implies(rb); got != want {
			t.Fatalf("Implies(%v, %v) = %v, reference %v", la, lb, got, want)
		}
		if got, want := a.Compatible(b), ra.compatible(rb); got != want {
			t.Fatalf("Compatible(%v, %v) = %v, reference %v", la, lb, got, want)
		}
		if got, want := a.Equal(b), ra.equal(rb); got != want {
			t.Fatalf("Equal(%v, %v) = %v, reference %v", la, lb, got, want)
		}
		if got, want := sign(a.Compare(b)), sign(ra.compare(rb)); got != want {
			t.Fatalf("Compare(%v, %v) = %v, reference %v", la, lb, got, want)
		}
		and, okAnd := a.And(b)
		rand, rokAnd := ra.and(rb)
		if okAnd != rokAnd {
			t.Fatalf("And(%v, %v) ok=%v, reference ok=%v", la, lb, okAnd, rokAnd)
		}
		if okAnd {
			if got, want := and.Format(nil), rand.format(); got != want {
				t.Fatalf("And(%v, %v) = %q, reference %q", la, lb, got, want)
			}
		}

		// A cube keys maps by value, so == must be the reference equality.
		if got, want := a == b, ra.equal(rb); got != want {
			t.Fatalf("%v == %v is %v, equality is %v", la, lb, got, want)
		}

		x := Cond(wb % uint8(MaxConds))
		w, okW := a.With(x, wb&1 == 1)
		rw, rokW := ra.with(x, wb&1 == 1)
		if okW != rokW {
			t.Fatalf("With(%v, %d) ok=%v, reference ok=%v", la, x, okW, rokW)
		}
		if okW {
			if got, want := w.Format(nil), rw.format(); got != want {
				t.Fatalf("With(%v, %d) = %q, reference %q", la, x, got, want)
			}
		}
		if got, want := a.Without(x).Format(nil), ra.without(x).format(); got != want {
			t.Fatalf("Without(%v, %d) = %q, reference %q", la, x, got, want)
		}
	})
}
