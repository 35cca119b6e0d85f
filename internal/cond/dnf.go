package cond

import (
	"math/bits"
	"sort"
	"strings"
)

// DNF is a disjunction of cubes. It is the representation used for process
// guards: a process guard is satisfied on an alternative path when at least
// one of its cubes is implied by the path label.
//
// The zero value is the constant false (empty disjunction). Use DNFTrue for
// the constant true. DNFs are immutable.
type DNF struct {
	cubes []Cube
}

// DNFFalse returns the constant false guard.
func DNFFalse() DNF { return DNF{} }

// DNFTrue returns the constant true guard (a single empty cube).
func DNFTrue() DNF { return DNF{cubes: []Cube{True()}} }

// FromCube returns a DNF consisting of the single cube c.
func FromCube(c Cube) DNF { return DNF{cubes: []Cube{c}} }

// IsFalse reports whether the DNF is the empty disjunction.
func (d DNF) IsFalse() bool { return len(d.cubes) == 0 }

// Or returns the disjunction of two DNFs, simplified.
func (d DNF) Or(o DNF) DNF {
	n := DNF{cubes: append(append([]Cube(nil), d.cubes...), o.cubes...)}
	return n.Simplify()
}

// And returns the conjunction of two DNFs, simplified. Unsatisfiable product
// cubes are dropped.
func (d DNF) And(o DNF) DNF {
	var out []Cube
	for _, a := range d.cubes {
		for _, b := range o.cubes {
			if p, ok := a.And(b); ok {
				out = append(out, p)
			}
		}
	}
	return DNF{cubes: out}.Simplify()
}

// AndCube returns the conjunction of the DNF with a single cube.
func (d DNF) AndCube(c Cube) DNF { return d.And(FromCube(c)) }

// maskConds expands a condition bitmask into the sorted condition slice.
func maskConds(m uint64) []Cond {
	out := make([]Cond, 0, bits.OnesCount64(m))
	for ; m != 0; m &= m - 1 {
		out = append(out, Cond(bits.TrailingZeros64(m)))
	}
	return out
}

// SatisfiedBy reports whether the (possibly partial) assignment assign makes
// the DNF true, i.e. some cube of the DNF is implied by assign. Conditions
// not mentioned by assign count as unknown, so a cube that mentions such a
// condition is not satisfied.
func (d DNF) SatisfiedBy(assign Cube) bool {
	for _, c := range d.cubes {
		if assign.Implies(c) {
			return true
		}
	}
	return false
}

// SatisfiedCube returns the first cube implied by assign, if any.
func (d DNF) SatisfiedCube(assign Cube) (Cube, bool) {
	for _, c := range d.cubes {
		if assign.Implies(c) {
			return c, true
		}
	}
	return Cube{}, false
}

// Simplify removes subsumed cubes and merges pairs of cubes that differ in
// exactly one literal (the consensus rule restricted to adjacent cubes, which
// is sufficient for the guards produced by conditional process graphs). The
// result is logically equivalent to the input.
func (d DNF) Simplify() DNF {
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

// mergeAdjacent merges two cubes that mention exactly the same conditions and
// differ in the value of exactly one of them, returning the cube without that
// condition.
func mergeAdjacent(a, b Cube) (Cube, bool) {
	if a.IsTrue() || a.Mask() != b.Mask() {
		return Cube{}, false
	}
	diff := a.PosMask() ^ b.PosMask() // same mask, so also neg^neg
	if diff == 0 {
		// Identical cubes merge trivially.
		return a, true
	}
	if bits.OnesCount64(diff) != 1 {
		return Cube{}, false
	}
	return a.Without(Cond(bits.TrailingZeros64(diff))), true
}

// assignments enumerates all full assignments over the given conditions and
// calls fn for each; fn returning false stops the enumeration early.
func assignments(conds []Cond, fn func(Cube) bool) {
	n := len(conds)
	if n > 24 {
		n = 24 // safety bound; CPGs never get close to this
	}
	total := 1 << uint(n)
	for mask := 0; mask < total; mask++ {
		var c Cube
		for i := 0; i < n; i++ {
			bit := uint64(1) << uint(conds[i])
			if mask&(1<<uint(i)) != 0 {
				c.pos |= bit
			} else {
				c.neg |= bit
			}
		}
		if !fn(c) {
			return
		}
	}
}

// Implies reports whether d logically implies o: every assignment satisfying
// some cube of d satisfies o. Each cube is first checked against the cubes of
// o directly (the overwhelmingly common case in guard validation); only when
// a cube is covered by a combination of o's cubes does the check fall back to
// enumerating the assignments of the conditions o mentions beyond the cube.
// Guards mention only a handful of conditions, so even the fallback is cheap.
func (d DNF) Implies(o DNF) bool {
	for _, a := range d.cubes {
		if !cubeImpliesDNF(a, o) {
			return false
		}
	}
	return true
}

// ImpliedByCube reports whether the single cube c implies the DNF. It is
// equivalent to FromCube(c).Implies(d) without building the intermediate DNF.
func (d DNF) ImpliedByCube(c Cube) bool { return cubeImpliesDNF(c, d) }

// cubeImpliesDNF reports whether every assignment satisfying cube a satisfies
// the DNF o.
func cubeImpliesDNF(a Cube, o DNF) bool {
	// Fast path: a is subsumed by one cube of o.
	for _, b := range o.cubes {
		if a.Implies(b) {
			return true
		}
	}
	// Slow path: a may still be covered by several cubes of o together.
	// Enumerate the assignments of the conditions o mentions and a does not,
	// each extended with a itself; conditions mentioned nowhere cannot
	// influence o.
	var freeMask uint64
	for _, b := range o.cubes {
		freeMask |= b.Mask()
	}
	freeMask &^= a.Mask()
	if freeMask == 0 {
		return false // a assigns everything o mentions, and no cube matched
	}
	free := maskConds(freeMask)
	ok := true
	assignments(free, func(x Cube) bool {
		full, compatible := a.And(x)
		if !compatible {
			return true // cannot happen: free excludes a's conditions
		}
		if !o.SatisfiedBy(full) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// String renders the DNF with default condition names.
func (d DNF) String() string { return d.Format(nil) }

// Format renders the DNF using the given Namer.
func (d DNF) Format(n Namer) string {
	if d.IsFalse() {
		return "false"
	}
	parts := make([]string, 0, len(d.cubes))
	for _, c := range d.cubes {
		parts = append(parts, c.Format(n))
	}
	return strings.Join(parts, " | ")
}
