package cond

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func lit(c int, v bool) Lit { return Lit{Cond: Cond(c), Val: v} }

func TestTrueCube(t *testing.T) {
	c := True()
	if !c.IsTrue() {
		t.Fatalf("True() should be the empty cube")
	}
	if c.Len() != 0 {
		t.Fatalf("True() length = %d, want 0", c.Len())
	}
	if got := c.String(); got != "true" {
		t.Fatalf("True().String() = %q, want %q", got, "true")
	}
	if c != (Cube{}) {
		t.Fatalf("True() = %#v, want the zero cube", c)
	}
}

func TestNewCube(t *testing.T) {
	c, ok := NewCube(lit(0, true), lit(1, false))
	if !ok {
		t.Fatalf("NewCube returned not ok for consistent literals")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if v, ok := c.Value(0); !ok || !v {
		t.Fatalf("Value(0) = %v,%v want true,true", v, ok)
	}
	if v, ok := c.Value(1); !ok || v {
		t.Fatalf("Value(1) = %v,%v want false,true", v, ok)
	}
	if _, ok := c.Value(2); ok {
		t.Fatalf("Value(2) should not be present")
	}
}

func TestNewCubeContradiction(t *testing.T) {
	if _, ok := NewCube(lit(0, true), lit(0, false)); ok {
		t.Fatalf("NewCube should fail on contradictory literals")
	}
}

func TestMustCubePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustCube should panic on contradiction")
		}
	}()
	MustCube(lit(0, true), lit(0, false))
}

func TestWithDoesNotMutate(t *testing.T) {
	a := MustCube(lit(0, true))
	b, ok := a.With(1, false)
	if !ok {
		t.Fatalf("With failed")
	}
	if a.Len() != 1 {
		t.Fatalf("With mutated the receiver: len=%d", a.Len())
	}
	if b.Len() != 2 {
		t.Fatalf("With result has len=%d, want 2", b.Len())
	}
}

func TestWithSameValueIsNoop(t *testing.T) {
	a := MustCube(lit(0, true))
	b, ok := a.With(0, true)
	if !ok || !a.Equal(b) {
		t.Fatalf("With on existing literal with same value should be a no-op")
	}
	if _, ok := a.With(0, false); ok {
		t.Fatalf("With on existing literal with opposite value should fail")
	}
}

func TestWithout(t *testing.T) {
	a := MustCube(lit(0, true), lit(1, false))
	b := a.Without(0)
	if b.Has(0) || !b.Has(1) || a.Len() != 2 {
		t.Fatalf("Without misbehaved: a=%v b=%v", a, b)
	}
	if !a.Without(7).Equal(a) {
		t.Fatalf("Without of an absent condition must be identity")
	}
}

func TestAndCompatible(t *testing.T) {
	a := MustCube(lit(0, true))
	b := MustCube(lit(1, false))
	c, ok := a.And(b)
	if !ok || c.Len() != 2 {
		t.Fatalf("And of compatible cubes failed: %v %v", c, ok)
	}
	d := MustCube(lit(0, false))
	if _, ok := a.And(d); ok {
		t.Fatalf("And of incompatible cubes should fail")
	}
	if a.Compatible(d) {
		t.Fatalf("Compatible should be false for contradictory cubes")
	}
	if !a.Compatible(b) {
		t.Fatalf("Compatible should be true for disjoint cubes")
	}
}

func TestImplies(t *testing.T) {
	dck := MustCube(lit(0, true), lit(1, true), lit(2, false))
	dc := MustCube(lit(0, true), lit(1, true))
	if !dck.Implies(dc) {
		t.Fatalf("D&C&!K should imply D&C")
	}
	if dc.Implies(dck) {
		t.Fatalf("D&C should not imply D&C&!K")
	}
	if !dck.Implies(True()) {
		t.Fatalf("every cube implies true")
	}
	if True().Implies(dc) {
		t.Fatalf("true should not imply a non-empty cube")
	}
}

func TestEqualAndKey(t *testing.T) {
	a := MustCube(lit(2, false), lit(0, true))
	b := MustCube(lit(0, true), lit(2, false))
	if !a.Equal(b) {
		t.Fatalf("cubes with same literals must be equal regardless of construction order")
	}
	// A cube is its own map key: equal cubes share an entry.
	rows := map[Cube]int{a: 1}
	if rows[b] != 1 {
		t.Fatalf("equal cubes key different map entries")
	}
	c := MustCube(lit(0, true), lit(2, true))
	if a.Equal(c) || rows[c] != 0 {
		t.Fatalf("cubes with different values must not be equal")
	}
}

func TestCondsSubsetOf(t *testing.T) {
	a := MustCube(lit(0, true))
	b := MustCube(lit(0, false), lit(1, true))
	if !a.CondsSubsetOf(b) {
		t.Fatalf("conds {0} should be a subset of conds {0,1} regardless of values")
	}
	if b.CondsSubsetOf(a) {
		t.Fatalf("conds {0,1} should not be a subset of conds {0}")
	}
	if !True().CondsSubsetOf(a) {
		t.Fatalf("true has no conditions, subset of everything")
	}
}

func TestFormatWithNamer(t *testing.T) {
	names := map[Cond]string{0: "D", 1: "C", 2: "K"}
	n := func(c Cond) string { return names[c] }
	cube := MustCube(lit(0, true), lit(1, true), lit(2, false))
	if got := cube.Format(n); got != "D&C&!K" {
		t.Fatalf("Format = %q, want %q", got, "D&C&!K")
	}
	if got := True().Format(n); got != "true" {
		t.Fatalf("Format(true) = %q", got)
	}
}

func TestLitString(t *testing.T) {
	if got := lit(1, true).String(); got != "c1" {
		t.Fatalf("Lit.String = %q, want c1", got)
	}
	if got := lit(3, false).String(); got != "!c3" {
		t.Fatalf("Lit.String = %q, want !c3", got)
	}
}

func TestCompareOrdering(t *testing.T) {
	a := MustCube(lit(0, true))
	b := MustCube(lit(0, false))
	if a.Compare(b) >= 0 {
		t.Fatalf("positive literal should sort before negative for same condition")
	}
	c := MustCube(lit(0, true), lit(1, true))
	if a.Compare(c) >= 0 {
		t.Fatalf("shorter prefix cube should sort before its extension")
	}
	if a.Compare(a) != 0 {
		t.Fatalf("cube must compare equal to itself")
	}
}

func TestDNFBasics(t *testing.T) {
	if !DNFTrue().SatisfiedBy(True()) || DNFTrue().IsFalse() {
		t.Fatalf("DNFTrue misclassified")
	}
	if !DNFFalse().IsFalse() || DNFFalse().SatisfiedBy(True()) {
		t.Fatalf("DNFFalse misclassified")
	}
	d := FromCube(MustCube(lit(0, true)))
	if len(d.cubes) != 1 || d.SatisfiedBy(True()) || d.IsFalse() {
		t.Fatalf("FromCube wrong: %v", d)
	}
	if got := DNFFalse().String(); got != "false" {
		t.Fatalf("false DNF renders %q", got)
	}
}

func TestDNFSimplifyComplementaryCubes(t *testing.T) {
	// q&C | q&!C should simplify to q.
	q := MustCube(lit(0, true))
	a := q.MustWith(1, true)
	b := q.MustWith(1, false)
	d := simplified(a, b)
	if len(d.cubes) != 1 {
		t.Fatalf("simplify should merge complementary cubes, got %v", d)
	}
	if !d.cubes[0].Equal(q) {
		t.Fatalf("merged cube = %v, want %v", d.cubes[0], q)
	}
}

func TestDNFSimplifySubsumption(t *testing.T) {
	q := MustCube(lit(0, true))
	qc := q.MustWith(1, true)
	d := simplified(q, qc)
	if len(d.cubes) != 1 || !d.cubes[0].Equal(q) {
		t.Fatalf("q | q&C should simplify to q, got %v", d)
	}
	// Duplicates collapse.
	d2 := simplified(q, q, q)
	if len(d2.cubes) != 1 {
		t.Fatalf("duplicate cubes should collapse, got %v", d2)
	}
}

func TestDNFSimplifyToTrue(t *testing.T) {
	a := MustCube(lit(0, true))
	b := MustCube(lit(0, false))
	d := simplified(a, b)
	if !d.SatisfiedBy(True()) {
		t.Fatalf("C | !C should simplify to true, got %v", d)
	}
}

func TestDNFOrAnd(t *testing.T) {
	c := FromCube(MustCube(lit(1, true)))
	k := FromCube(MustCube(lit(2, true)))
	or := c.Or(k)
	if len(or.cubes) != 2 {
		t.Fatalf("C | K should have two cubes, got %v", or)
	}
	and := c.And(k)
	if len(and.cubes) != 1 || and.cubes[0].Len() != 2 {
		t.Fatalf("C & K should be one two-literal cube, got %v", and)
	}
	// (C | K) & !C  ==  K & !C  (the C cube drops out).
	notC := FromCube(MustCube(lit(1, false)))
	res := or.And(notC)
	want := MustCube(lit(1, false), lit(2, true))
	if len(res.cubes) != 1 || !res.cubes[0].Equal(want) {
		t.Fatalf("(C|K)&!C = %v, want single cube %v", res, want)
	}
	if !DNFFalse().And(c).IsFalse() {
		t.Fatalf("false & C should be false")
	}
	if tc := DNFTrue().And(c); !tc.Implies(c) || !c.Implies(tc) {
		t.Fatalf("true & C should be C")
	}
}

func TestDNFSatisfiedBy(t *testing.T) {
	guard := FromCube(MustCube(lit(0, true), lit(2, true))) // D & K
	full := MustCube(lit(0, true), lit(1, false), lit(2, true))
	if !guard.SatisfiedBy(full) {
		t.Fatalf("D&K should be satisfied by D&!C&K")
	}
	partial := MustCube(lit(0, true))
	if guard.SatisfiedBy(partial) {
		t.Fatalf("D&K must not be satisfied by D alone (K unknown)")
	}
	if !DNFTrue().SatisfiedBy(True()) {
		t.Fatalf("true guard is satisfied by the empty assignment")
	}
	if DNFFalse().SatisfiedBy(full) {
		t.Fatalf("false guard is never satisfied")
	}
	if cube, ok := guard.SatisfiedCube(full); !ok || cube.Len() != 2 {
		t.Fatalf("SatisfiedCube failed: %v %v", cube, ok)
	}
}

func TestDNFImpliesAndEquivalent(t *testing.T) {
	dck := FromCube(MustCube(lit(0, true), lit(1, true)))
	d := FromCube(MustCube(lit(0, true)))
	if !dck.Implies(d) {
		t.Fatalf("D&C should imply D")
	}
	if d.Implies(dck) {
		t.Fatalf("D should not imply D&C")
	}
	// D&C | D&!C is equivalent to D.
	split := simplified(
		MustCube(lit(0, true), lit(1, true)),
		MustCube(lit(0, true), lit(1, false)),
	)
	if !split.Implies(d) || !d.Implies(split) {
		t.Fatalf("D&C | D&!C should be equivalent to D")
	}
	if !DNFFalse().Implies(d) {
		t.Fatalf("false implies everything")
	}
	if !d.Implies(DNFTrue()) {
		t.Fatalf("everything implies true")
	}
}

func TestDNFFormat(t *testing.T) {
	names := map[Cond]string{0: "D", 1: "C"}
	n := func(c Cond) string { return names[c] }
	d := simplified(MustCube(lit(0, true)), MustCube(lit(1, false)))
	got := d.Format(n)
	if got != "D | !C" && got != "!C | D" {
		t.Fatalf("Format = %q", got)
	}
}

// simplified returns the simplified DNF over the given cubes.
func simplified(cubes ...Cube) DNF { return DNF{cubes: cubes}.Simplify() }

// randomCube builds a random cube over conditions [0, nConds) for property tests.
func randomCube(r *rand.Rand, nConds int) Cube {
	c := True()
	for i := 0; i < nConds; i++ {
		switch r.Intn(3) {
		case 0:
			c = c.MustWith(Cond(i), true)
		case 1:
			c = c.MustWith(Cond(i), false)
		}
	}
	return c
}

func TestPropertyAndCommutative(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		a := randomCube(r, 5)
		b := randomCube(r, 5)
		ab, ok1 := a.And(b)
		ba, ok2 := b.And(a)
		if ok1 != ok2 {
			return false
		}
		if !ok1 {
			return true
		}
		return ab.Equal(ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyImpliesIsPartialOrder(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		a := randomCube(r, 5)
		b := randomCube(r, 5)
		c := randomCube(r, 5)
		// Reflexivity.
		if !a.Implies(a) {
			return false
		}
		// Transitivity.
		if a.Implies(b) && b.Implies(c) && !a.Implies(c) {
			return false
		}
		// Antisymmetry (implies both ways means equal).
		if a.Implies(b) && b.Implies(a) && !a.Equal(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCompatibleIffAndSatisfiable(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		a := randomCube(r, 6)
		b := randomCube(r, 6)
		_, ok := a.And(b)
		return ok == a.Compatible(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySimplifyPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func() bool {
		n := 2 + r.Intn(4)
		cubes := make([]Cube, n)
		for i := range cubes {
			cubes[i] = randomCube(r, 4)
		}
		raw := DNF{cubes: cubes}
		simp := raw.Simplify()
		// Compare by brute-force truth table over the 4 conditions.
		conds := []Cond{0, 1, 2, 3}
		equal := true
		assignments(conds, func(a Cube) bool {
			if raw.SatisfiedBy(a) != simp.SatisfiedBy(a) {
				equal = false
				return false
			}
			return true
		})
		return equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDNFOrIsUpperBound(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func() bool {
		a := FromCube(randomCube(r, 4))
		b := FromCube(randomCube(r, 4))
		or := a.Or(b)
		return a.Implies(or) && b.Implies(or)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDNFAndIsLowerBound(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	f := func() bool {
		a := FromCube(randomCube(r, 4))
		b := FromCube(randomCube(r, 4))
		and := a.And(b)
		return and.Implies(a) && and.Implies(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAssignmentsEnumeratesAll(t *testing.T) {
	count := 0
	assignments([]Cond{0, 1, 2}, func(c Cube) bool {
		if c.Len() != 3 {
			t.Fatalf("assignment with wrong length: %v", c)
		}
		count++
		return true
	})
	if count != 8 {
		t.Fatalf("enumerated %d assignments, want 8", count)
	}
	// Early stop.
	count = 0
	assignments([]Cond{0, 1, 2}, func(Cube) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop failed, count=%d", count)
	}
}
