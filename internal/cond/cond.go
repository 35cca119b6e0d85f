// Package cond implements the boolean condition algebra used by conditional
// process graphs: condition identifiers, literals, conjunctions of literals
// (cubes) and disjunctive normal forms (guards).
//
// A condition is a boolean value computed at run time by a disjunction
// process. A cube assigns a value to a subset of the conditions and stands
// for the conjunction of the corresponding literals; the empty cube is the
// constant true. Guards of processes and labels of alternative paths are
// represented as cubes or as small DNFs (disjunctions of cubes).
//
// All values are immutable: every operation returns a new value and never
// modifies its receiver or arguments.
//
// Cubes are backed by a pair of uint64 bitmasks (conditions assigned true and
// conditions assigned false), so a cube is a 16-byte value with no heap
// backing at all. Compared to the earlier sorted-literal-slice representation
// this makes every read-only operation (Implies, Compatible, Equal,
// CondsSubsetOf) and every extending operation (With, And) a handful of mask
// instructions with zero allocations, turns Equal into ==, and makes Cube a
// comparable type usable directly as a map key — which matters because the
// scheduling core evaluates guards inside its innermost loops and the table
// keys rows by expression. The price is a hard cap of MaxConds conditions per
// graph, far above anything the paper's sweep (≤ ~10 conditions) produces.
package cond

import (
	"fmt"
	"math/bits"
	"strconv"
)

// Cond identifies a condition within a graph. Conditions are small
// non-negative integers handed out by the graph builder; the bitset cube
// representation requires them to stay below MaxConds.
type Cond int

// None is the sentinel for "no condition".
const None Cond = -1

// MaxConds is the largest number of conditions a single graph may declare:
// condition identifiers must fit in one uint64 bitmask. Graph construction
// rejects graphs beyond the limit before any cube is built; cube operations
// that would silently wrap instead panic loudly.
const MaxConds = 64

// checkCond panics when a condition identifier cannot be represented in the
// bitset. Failing loudly here is deliberate: a shifted-out bit would silently
// alias condition x and condition x-64, corrupting guards.
func checkCond(x Cond) {
	if x < 0 || x >= MaxConds {
		panic(fmt.Sprintf("cond: condition %d outside bitset range [0,%d)", int(x), MaxConds))
	}
}

// Lit is a single condition literal: the condition Cond with value Val.
type Lit struct {
	Cond Cond
	Val  bool
}

// String renders the literal as "c3" or "!c3".
func (l Lit) String() string {
	if l.Val {
		return fmt.Sprintf("c%d", int(l.Cond))
	}
	return fmt.Sprintf("!c%d", int(l.Cond))
}

// Negate returns the literal with the opposite value.
func (l Lit) Negate() Lit { return Lit{Cond: l.Cond, Val: !l.Val} }

// Namer translates a condition identifier into a human readable name.
// A nil Namer falls back to "c<id>".
type Namer func(Cond) string

// appendName appends the name of condition c to dst: n(c), or "c<id>" when
// n is nil or returns "".
func appendName(dst []byte, n Namer, c Cond) []byte {
	if n != nil {
		if s := n(c); s != "" {
			return append(dst, s...)
		}
	}
	return strconv.AppendInt(append(dst, 'c'), int64(c), 10)
}

// Cube is a conjunction of condition literals. The zero value is the constant
// true (the empty conjunction). Cubes are immutable 16-byte values: bit i of
// pos means "condition i is true", bit i of neg means "condition i is false",
// and the two masks are always disjoint. Cube is comparable; == coincides
// with Equal, so cubes can key maps directly.
type Cube struct {
	pos, neg uint64
}

// True returns the empty cube (constant true).
func True() Cube { return Cube{} }

// NewCube builds a cube from the given literals. The second return value is
// false when two literals assign opposite values to the same condition, in
// which case the conjunction is unsatisfiable. Literal order is irrelevant;
// the cube is canonical by construction.
func NewCube(lits ...Lit) (Cube, bool) {
	var c Cube
	for _, l := range lits {
		checkCond(l.Cond)
		bit := uint64(1) << uint(l.Cond)
		if l.Val {
			c.pos |= bit
		} else {
			c.neg |= bit
		}
	}
	if c.pos&c.neg != 0 {
		return Cube{}, false
	}
	return c, true
}

// MustCube is like NewCube but panics on an unsatisfiable conjunction. It is
// intended for tests and literal construction of known-consistent cubes.
func MustCube(lits ...Lit) Cube {
	c, ok := NewCube(lits...)
	if !ok {
		panic("cond: MustCube called with contradictory literals")
	}
	return c
}

// CubeFromOwnedLits builds a cube from a caller-assembled literal slice.
// Duplicate literals are compacted; the second return value is false when two
// literals contradict.
//
// Historically the slice became the cube's backing storage ("owned"), which
// left an aliasing hole: a later append or write through the caller's slice
// silently mutated the supposedly immutable cube. The bitset representation
// closes that hole structurally — the literals are folded into the masks and
// the slice is never retained — so this is now just NewCube under a name kept
// for hot-path callers.
func CubeFromOwnedLits(lits []Lit) (Cube, bool) { return NewCube(lits...) }

// IsTrue reports whether the cube is the empty conjunction.
func (c Cube) IsTrue() bool { return c.pos|c.neg == 0 }

// Len returns the number of literals in the cube.
func (c Cube) Len() int { return bits.OnesCount64(c.pos | c.neg) }

// Value returns the value assigned to condition x and whether x appears in
// the cube. Out-of-range conditions (including None) are simply absent.
func (c Cube) Value(x Cond) (bool, bool) {
	if x < 0 || x >= MaxConds {
		return false, false
	}
	bit := uint64(1) << uint(x)
	if c.pos&bit != 0 {
		return true, true
	}
	if c.neg&bit != 0 {
		return false, true
	}
	return false, false
}

// Has reports whether condition x appears in the cube.
func (c Cube) Has(x Cond) bool {
	if x < 0 || x >= MaxConds {
		return false
	}
	return (c.pos|c.neg)&(uint64(1)<<uint(x)) != 0
}

// With returns a copy of the cube extended with the literal (x, v). The
// second return value is false when the cube already assigns the opposite
// value to x.
func (c Cube) With(x Cond, v bool) (Cube, bool) {
	checkCond(x)
	bit := uint64(1) << uint(x)
	if v {
		if c.neg&bit != 0 {
			return Cube{}, false
		}
		c.pos |= bit
	} else {
		if c.pos&bit != 0 {
			return Cube{}, false
		}
		c.neg |= bit
	}
	return c, true
}

// MustWith is like With but panics on contradiction.
func (c Cube) MustWith(x Cond, v bool) Cube {
	n, ok := c.With(x, v)
	if !ok {
		panic(fmt.Sprintf("cond: MustWith(%d,%v) contradicts existing literal", int(x), v))
	}
	return n
}

// Without returns a copy of the cube with condition x removed.
func (c Cube) Without(x Cond) Cube {
	if x < 0 || x >= MaxConds {
		return c
	}
	bit := uint64(1) << uint(x)
	c.pos &^= bit
	c.neg &^= bit
	return c
}

// And returns the conjunction of two cubes. The second return value is false
// when the conjunction is unsatisfiable.
func (c Cube) And(o Cube) (Cube, bool) {
	n := Cube{pos: c.pos | o.pos, neg: c.neg | o.neg}
	if n.pos&n.neg != 0 {
		return Cube{}, false
	}
	return n, true
}

// Compatible reports whether the conjunction of the two cubes is satisfiable,
// i.e. no condition appears with opposite values.
func (c Cube) Compatible(o Cube) bool {
	return c.pos&o.neg == 0 && c.neg&o.pos == 0
}

// Implies reports whether c logically implies o, i.e. every literal of o
// appears in c with the same value.
func (c Cube) Implies(o Cube) bool {
	return o.pos&^c.pos == 0 && o.neg&^c.neg == 0
}

// Equal reports whether the two cubes contain exactly the same literals.
// Equivalent to ==.
func (c Cube) Equal(o Cube) bool { return c == o }

// CondsSubsetOf reports whether every condition mentioned by c is also
// mentioned by o (regardless of values).
func (c Cube) CondsSubsetOf(o Cube) bool {
	return (c.pos|c.neg)&^(o.pos|o.neg) == 0
}

// Mask returns the set of conditions mentioned by the cube as a bitmask
// (bit i set means condition i appears, with either value). Together with
// PosMask it lets hot loops walk a cube's literals without allocating:
//
//	for m := c.Mask(); m != 0; m &= m - 1 {
//		x := cond.Cond(bits.TrailingZeros64(m))
//		...
//	}
func (c Cube) Mask() uint64 { return c.pos | c.neg }

// PosMask returns the conditions assigned true as a bitmask.
func (c Cube) PosMask() uint64 { return c.pos }

// NegMask returns the conditions assigned false as a bitmask.
func (c Cube) NegMask() uint64 { return c.neg }

// Conds returns the conditions mentioned by the cube in ascending order.
func (c Cube) Conds() []Cond {
	m := c.pos | c.neg
	out := make([]Cond, 0, bits.OnesCount64(m))
	for ; m != 0; m &= m - 1 {
		out = append(out, Cond(bits.TrailingZeros64(m)))
	}
	return out
}

// Lits returns the literals of the cube ordered by condition. The returned
// slice is freshly allocated on every call — writes to it can never reach the
// cube. Hot paths should iterate Mask/PosMask instead and skip the
// allocation.
func (c Cube) Lits() []Lit { return c.AppendLits(nil) }

// AppendLits appends the literals of the cube, ordered by condition, to dst
// and returns the extended slice.
func (c Cube) AppendLits(dst []Lit) []Lit {
	for m := c.pos | c.neg; m != 0; m &= m - 1 {
		x := Cond(bits.TrailingZeros64(m))
		dst = append(dst, Lit{Cond: x, Val: c.pos&(uint64(1)<<uint(x)) != 0})
	}
	return dst
}

// Key returns a canonical string usable as a map key for the cube. Two cubes
// have equal keys exactly when they are Equal. Prefer keying maps by the Cube
// value itself (it is comparable); Key exists for contexts that need a string.
func (c Cube) Key() string { return string(c.AppendKey(nil)) }

// AppendKey appends the canonical key of the cube to dst and returns it. The
// key is a fixed 16-byte big-endian encoding of the (pos, neg) masks, so keys
// are integer-comparable and never allocate beyond the destination buffer.
func (c Cube) AppendKey(dst []byte) []byte {
	return append(dst,
		byte(c.pos>>56), byte(c.pos>>48), byte(c.pos>>40), byte(c.pos>>32),
		byte(c.pos>>24), byte(c.pos>>16), byte(c.pos>>8), byte(c.pos),
		byte(c.neg>>56), byte(c.neg>>48), byte(c.neg>>40), byte(c.neg>>32),
		byte(c.neg>>24), byte(c.neg>>16), byte(c.neg>>8), byte(c.neg))
}

// String renders the cube with default condition names ("true" for the empty
// cube, "c0&!c1" otherwise).
func (c Cube) String() string { return c.Format(nil) }

// Format renders the cube using the given Namer, joining literals with the
// conjunction sign used by the paper's tables.
func (c Cube) Format(n Namer) string {
	if c.IsTrue() {
		return "true"
	}
	var buf [64]byte
	return string(c.AppendFormat(buf[:0], n))
}

// AppendFormat appends the Format rendering of the cube to dst and returns
// the extended buffer, so callers rendering many cubes can share one buffer.
func (c Cube) AppendFormat(dst []byte, n Namer) []byte {
	if c.IsTrue() {
		return append(dst, "true"...)
	}
	all := c.pos | c.neg
	for m := all; m != 0; m &= m - 1 {
		x := Cond(bits.TrailingZeros64(m))
		if m != all {
			dst = append(dst, '&')
		}
		if c.neg&(uint64(1)<<uint(x)) != 0 {
			dst = append(dst, '!')
		}
		dst = appendName(dst, n, x)
	}
	return dst
}

// Compare orders cubes lexicographically by their (condition, value) literal
// sequence — positive literal before negative for the same condition — with a
// cube that is a strict prefix of another sorting first. It returns a
// negative number, zero or a positive number as c sorts before, equal to or
// after o. It is used for stable table layout and replicates the ordering of
// the earlier slice representation exactly, which the golden tables pin.
func (c Cube) Compare(o Cube) int {
	if c == o {
		return 0
	}
	am, bm := c.pos|c.neg, o.pos|o.neg
	for am != 0 && bm != 0 {
		ai := bits.TrailingZeros64(am)
		bi := bits.TrailingZeros64(bm)
		if ai != bi {
			return ai - bi
		}
		bit := uint64(1) << uint(ai)
		av, bv := c.pos&bit != 0, o.pos&bit != 0
		if av != bv {
			if av {
				return -1
			}
			return 1
		}
		am &= am - 1
		bm &= bm - 1
	}
	return bits.OnesCount64(am) - bits.OnesCount64(bm)
}
