package cond

import (
	"slices"
	"sort"
	"strings"
	"testing"
)

// This file carries test-only copies of code that faster production code
// replaced, and fuzzers that drive both through the same operations: the
// sorted-literal-slice Cube implementation that the bitset representation
// replaced, and the copying DNF operations that the in-place ones replaced.
// The references are deliberately the old production code (modulo renaming):
// any divergence the fuzzers find is a semantic regression of the new code,
// not a test artifact.

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

// refOr, refAnd, refAndCube and refSimplify are the retired DNF operations:
// each copies its operands and simplifies the copy.
func refOr(d, o DNF) DNF {
	n := DNF{cubes: append(append([]Cube(nil), d.cubes...), o.cubes...)}
	return refSimplify(n)
}

func refAnd(d, o DNF) DNF {
	var out []Cube
	for _, a := range d.cubes {
		for _, b := range o.cubes {
			if p, ok := a.And(b); ok {
				out = append(out, p)
			}
		}
	}
	return refSimplify(DNF{cubes: out})
}

func refAndCube(d DNF, c Cube) DNF { return refAnd(d, FromCube(c)) }

func refSimplify(d DNF) DNF {
	cubes := append([]Cube(nil), d.cubes...)
	changed := true
	for changed {
		changed = false
		// Merge cubes differing in exactly one literal.
	merge:
		for i := 0; i < len(cubes); i++ {
			for j := i + 1; j < len(cubes); j++ {
				if m, ok := mergeAdjacent(cubes[i], cubes[j]); ok {
					cubes[i] = m
					cubes = append(cubes[:j], cubes[j+1:]...)
					changed = true
					break merge
				}
			}
		}
		// Drop cubes subsumed by another cube (a implies b means a is
		// more specific; it is subsumed by b).
		out := cubes[:0:0]
		for i, a := range cubes {
			subsumed := false
			for j, b := range cubes {
				if i == j {
					continue
				}
				if a.Implies(b) && !(b.Implies(a) && j > i) {
					// a is subsumed by b; keep only the first of equal cubes.
					if !a.Equal(b) || j < i {
						subsumed = true
						break
					}
				}
			}
			if !subsumed {
				out = append(out, a)
			}
		}
		if len(out) != len(cubes) {
			changed = true
		}
		cubes = out
	}
	sort.Slice(cubes, func(i, j int) bool { return cubes[i].Compare(cubes[j]) < 0 })
	return DNF{cubes: cubes}
}

// cubesFromBytes decodes one cube per byte: the base-3 digits of b%243 say
// whether each of conditions 0-4 is absent, true or false, so merges and
// subsumptions between the cubes are frequent; a byte of 243 or more also
// sets the top condition, to exercise the upper mask bits.
func cubesFromBytes(data []byte) []Cube {
	cubes := make([]Cube, 0, len(data))
	for _, b := range data {
		var c Cube
		for x, v := Cond(0), int(b)%243; x < 5; x, v = x+1, v/3 {
			switch v % 3 {
			case 1:
				c = c.MustWith(x, true)
			case 2:
				c = c.MustWith(x, false)
			}
		}
		if b >= 243 {
			c = c.MustWith(MaxConds-1, b&1 == 1)
		}
		cubes = append(cubes, c)
	}
	return cubes
}

// FuzzDNFMatchesReference drives decoded cube lists through the in-place
// DNF operations and the retired copying ones, and demands the same cubes in
// the same order from each: simplify on raw, unsimplified lists; Or, And and
// AndCube on simplified operands, which are the only DNFs the package hands
// out, including the constants and single cubes; and a fold of Or over
// single cubes, the way guards accumulate. Simplifying a result again must
// change nothing, and no operation may change its operands, since results
// share their operands' cubes.
func FuzzDNFMatchesReference(f *testing.F) {
	f.Add([]byte{1, 2}, []byte{4}, uint8(3))
	f.Add([]byte{0, 1, 2, 3, 4, 5}, []byte{9, 18, 27}, uint8(0))
	f.Add([]byte{10, 11, 13, 10}, []byte{10, 11, 13}, uint8(40))
	f.Add([]byte{}, []byte{250, 251, 7}, uint8(255))
	f.Add([]byte{81, 162, 1, 2, 3}, []byte{0}, uint8(121))
	f.Fuzz(func(t *testing.T, da, db []byte, dc uint8) {
		rawA, rawB := cubesFromBytes(da), cubesFromBytes(db)
		c := cubesFromBytes([]byte{dc})[0]
		check := func(op string, got, want DNF) {
			t.Helper()
			if !slices.Equal(got.cubes, want.cubes) {
				t.Fatalf("%s = %v, reference %v (a=%v b=%v c=%v)", op, got, want, rawA, rawB, c)
			}
			if again := simplify(slices.Clone(got.cubes)); !slices.Equal(again, got.cubes) {
				t.Fatalf("%s = %v is not simplified: simplifying it gives %v", op, got, DNF{cubes: again})
			}
		}
		for _, raw := range [][]Cube{rawA, rawB} {
			check("simplify", DNF{cubes: simplify(slices.Clone(raw))}, refSimplify(DNF{cubes: raw}))
		}

		a, b := refSimplify(DNF{cubes: rawA}), refSimplify(DNF{cubes: rawB})
		frozenA, frozenB := slices.Clone(a.cubes), slices.Clone(b.cubes)
		operands := []struct {
			name string
			d    DNF
		}{{"a", a}, {"b", b}, {"true", DNFTrue()}, {"false", DNFFalse()}, {"c", FromCube(c)}}
		for _, x := range operands {
			for _, y := range operands {
				check(x.name+" | "+y.name, x.d.Or(y.d), refOr(x.d, y.d))
				check(x.name+" & "+y.name, x.d.And(y.d), refAnd(x.d, y.d))
			}
			check(x.name+" & cube c", x.d.AndCube(c), refAndCube(x.d, c))
		}
		acc, ref := DNFFalse(), DNFFalse()
		for _, cube := range append(slices.Clone(rawA), rawB...) {
			acc, ref = acc.Or(FromCube(cube)), refOr(ref, FromCube(cube))
			check("fold of |", acc, ref)
		}
		if !slices.Equal(a.cubes, frozenA) || !slices.Equal(b.cubes, frozenB) || !slices.Equal(DNFTrue().cubes, []Cube{True()}) {
			t.Fatalf("an operation changed its operands: a %v → %v, b %v → %v, true → %v",
				frozenA, a.cubes, frozenB, b.cubes, DNFTrue())
		}
	})
}
