package cond

import (
	"math/bits"
	"testing"
)

// FuzzCube drives a cube through an arbitrary sequence of With operations
// and checks the algebraic invariants the merging algorithm relies on
// (Theorem 1/2 reasoning is built on these): self-implication and
// self-compatibility hold, contradictory extensions are refused, and a cube
// rebuilt from its literals is == to it, so cubes key maps canonically. Run with
// `go test -fuzz FuzzCube ./internal/cond`.
func FuzzCube(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 5, 1})
	f.Add([]byte{7, 7, 7})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := True()
		for _, op := range ops {
			x := Cond(op >> 1 & 0x0f)
			v := op&1 == 1
			next, ok := c.With(x, v)
			if have, known := c.Value(x); known {
				// Re-asserting a known value must succeed iff it matches.
				if ok != (have == v) {
					t.Fatalf("With(%d,%v) ok=%v but cube has %v", x, v, ok, have)
				}
				if ok && !next.Equal(c) {
					t.Fatalf("re-asserting a literal changed the cube")
				}
			} else if !ok {
				t.Fatalf("adding a fresh literal must succeed")
			}
			if ok {
				c = next
			}
		}
		if !c.Implies(c) || !c.Equal(c) || !c.Compatible(c) {
			t.Fatalf("self relations violated for %s", c)
		}
		if !c.Implies(True()) {
			t.Fatalf("every cube implies true")
		}
		if !True().Compatible(c) {
			t.Fatalf("true is compatible with every cube")
		}
		and, ok := c.And(c)
		if !ok || !and.Equal(c) {
			t.Fatalf("c AND c must be c")
		}
		rebuilt := True()
		for m := c.Mask(); m != 0; m &= m - 1 {
			x := Cond(bits.TrailingZeros64(m))
			v, _ := c.Value(x)
			rebuilt = rebuilt.MustWith(x, v)
		}
		if rebuilt != c {
			t.Fatalf("cube not canonical: %s rebuilt from its literals is %s", c, rebuilt)
		}
	})
}
