package prover

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dimred/internal/caltime"
	"dimred/internal/expr"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(130)
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("fresh set not empty")
	}
	s.Add(0)
	s.Add(64)
	s.Add(129)
	s.Add(-1)  // ignored
	s.Add(130) // ignored
	if s.Count() != 3 || !s.Has(0) || !s.Has(64) || !s.Has(129) || s.Has(1) {
		t.Fatalf("set contents wrong: %v", s.Elems(nil))
	}
	f := Full(130)
	if f.Count() != 130 {
		t.Fatalf("Full count = %d", f.Count())
	}
	if !s.SubsetOf(f) || f.SubsetOf(s) {
		t.Error("subset relation broken")
	}
	c := f.Clone().MinusWith(s)
	if c.Count() != 127 || c.Has(64) {
		t.Error("MinusWith broken")
	}
	if !c.Intersects(f) || c.Intersects(s) {
		t.Error("Intersects broken")
	}
	comp := s.Clone().Complement()
	if comp.Count() != 127 || comp.Has(0) || !comp.Has(1) {
		t.Error("Complement broken")
	}
	u := s.Clone().UnionWith(comp)
	if u.Count() != 130 {
		t.Error("UnionWith broken")
	}
	i := s.Clone().IntersectWith(comp)
	if !i.Empty() {
		t.Error("IntersectWith broken")
	}
}

func TestSetAddRangeClipping(t *testing.T) {
	s := NewSet(10)
	s.AddRange(-5, 3)
	if s.Count() != 4 || !s.Has(0) || !s.Has(3) {
		t.Errorf("AddRange low clip: %v", s.Elems(nil))
	}
	s2 := NewSet(10)
	s2.AddRange(8, 99)
	if s2.Count() != 2 || !s2.Has(9) {
		t.Errorf("AddRange high clip: %v", s2.Elems(nil))
	}
	s3 := NewSet(10)
	s3.AddRange(5, 4) // empty range
	if !s3.Empty() {
		t.Error("empty AddRange added elements")
	}
}

func TestSetLaws(t *testing.T) {
	mk := func(bitsIn []uint16) *Set {
		s := NewSet(200)
		for _, b := range bitsIn {
			s.Add(int(b) % 200)
		}
		return s
	}
	f := func(aBits, bBits []uint16) bool {
		a, b := mk(aBits), mk(bBits)
		inter := a.Clone().IntersectWith(b)
		if !inter.SubsetOf(a) || !inter.SubsetOf(b) {
			return false
		}
		union := a.Clone().UnionWith(b)
		if !a.SubsetOf(union) || !b.SubsetOf(union) {
			return false
		}
		// |A| + |B| = |A∪B| + |A∩B|
		if a.Count()+b.Count() != union.Count()+inter.Count() {
			return false
		}
		minus := a.Clone().MinusWith(b)
		return minus.Count() == a.Count()-inter.Count() && !minus.Intersects(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func mustDay(t *testing.T, s string) caltime.Day {
	t.Helper()
	d, err := caltime.ParseDay(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func testHorizon(t *testing.T) Horizon {
	return Horizon{
		Min:       mustDay(t, "1999/1/1"),
		Max:       mustDay(t, "2001/12/31"),
		MaxOffset: 400,
	}
}

func TestTimeAtomDaysAt(t *testing.T) {
	hz := testHorizon(t)
	now := mustDay(t, "2000/11/5")
	month, _ := caltime.ParsePeriod("2000/5")

	// Time.month <= NOW - 6 months at 2000/11/5 selects days up to 2000/5/31.
	atom := TimeAtom{
		Unit:  caltime.UnitMonth,
		Op:    expr.OpLE,
		Exprs: []caltime.Expr{caltime.NowExpr().Minus(caltime.Span{N: 6, Unit: caltime.UnitMonth})},
	}
	s := atom.DaysAt(now, hz)
	if !s.Has(hz.DayIndex(month.Last())) {
		t.Error("2000/5/31 should satisfy")
	}
	if s.Has(hz.DayIndex(month.Last() + 1)) {
		t.Error("2000/6/1 should not satisfy")
	}
	if !s.Has(0) {
		t.Error("horizon start should satisfy (no lower bound)")
	}

	// Strict version excludes all of 2000/5.
	atom.Op = expr.OpLT
	s = atom.DaysAt(now, hz)
	if s.Has(hz.DayIndex(month.First())) {
		t.Error("strict <: 2000/5/1 should not satisfy")
	}
	if !s.Has(hz.DayIndex(month.First() - 1)) {
		t.Error("strict <: 2000/4/30 should satisfy")
	}

	// Equality selects exactly the period.
	atom.Op = expr.OpEQ
	s = atom.DaysAt(now, hz)
	if s.Count() != 31 {
		t.Errorf("= 2000/5 selects %d days, want 31", s.Count())
	}
	atom.Op = expr.OpNE
	if got := atom.DaysAt(now, hz).Count(); got != hz.Days()-31 {
		t.Errorf("!= selects %d days", got)
	}
	atom.Op = expr.OpGT
	s = atom.DaysAt(now, hz)
	if s.Has(hz.DayIndex(month.Last())) || !s.Has(hz.DayIndex(month.Last()+1)) {
		t.Error("> boundary wrong")
	}
	atom.Op = expr.OpGE
	s = atom.DaysAt(now, hz)
	if !s.Has(hz.DayIndex(month.First())) || s.Has(hz.DayIndex(month.First()-1)) {
		t.Error(">= boundary wrong")
	}
}

func TestTimeAtomInSet(t *testing.T) {
	hz := testHorizon(t)
	q4, _ := caltime.ParsePeriod("1999Q4")
	q1, _ := caltime.ParsePeriod("2000Q1")
	atom := TimeAtom{
		Unit: caltime.UnitQuarter,
		Op:   expr.OpIn,
		Exprs: []caltime.Expr{
			caltime.AnchorExpr(q4), caltime.AnchorExpr(q1),
		},
	}
	s := atom.DaysAt(0, hz)
	if got := s.Count(); got != 92+91 { // 1999Q4 has 92 days, 2000Q1 has 91
		t.Errorf("in-set selects %d days", got)
	}
	atom.Op = expr.OpNotIn
	if got := atom.DaysAt(0, hz).Count(); got != hz.Days()-92-91 {
		t.Errorf("not-in selects %d days", got)
	}
}

// nowLE builds the atom "month <= NOW - n months".
func nowLE(n int64) TimeAtom {
	return TimeAtom{
		Unit:  caltime.UnitMonth,
		Op:    expr.OpLE,
		Exprs: []caltime.Expr{caltime.NowExpr().Minus(caltime.Span{N: n, Unit: caltime.UnitMonth})},
	}
}

// nowGT builds the atom "month > NOW - n months".
func nowGT(n int64) TimeAtom {
	return TimeAtom{
		Unit:  caltime.UnitMonth,
		Op:    expr.OpGT,
		Exprs: []caltime.Expr{caltime.NowExpr().Minus(caltime.Span{N: n, Unit: caltime.UnitMonth})},
	}
}

// leafSet builds a bitset over a universe of 4 leaf values.
func leafSet(elems ...int) *Set {
	s := NewSet(4)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// regionOf builds a two-dimensional region: dim 0 is time with the given
// atoms, dim 1 is a 4-value leaf dimension.
func regionOf(atoms []TimeAtom, leaves *Set) Region {
	return Region{Dims: []DimConstraint{
		{IsTime: true, Time: atoms},
		{Fixed: leaves},
	}}
}

var testUniverses = []int{0, 4}

func TestOverlapsDisjointLeaves(t *testing.T) {
	hz := testHorizon(t)
	a := regionOf([]TimeAtom{nowLE(6)}, leafSet(0, 1))
	b := regionOf([]TimeAtom{nowLE(6)}, leafSet(2, 3))
	if ok, _ := Overlaps(a, b, hz, testUniverses); ok {
		t.Error("disjoint leaf sets should not overlap")
	}
	b2 := regionOf([]TimeAtom{nowLE(6)}, leafSet(1, 2))
	if ok, _ := Overlaps(a, b2, hz, testUniverses); !ok {
		t.Error("sharing leaf 1 should overlap")
	}
}

func TestOverlapsMovingWindows(t *testing.T) {
	hz := testHorizon(t)
	// a: months (NOW-12, NOW-6]; b: months <= NOW-12. The windows abut
	// but never share a day at the same t.
	a := regionOf([]TimeAtom{nowGT(12), nowLE(6)}, nil)
	b := regionOf([]TimeAtom{nowLE(12)}, nil)
	if ok, at := Overlaps(a, b, hz, testUniverses); ok {
		t.Errorf("abutting moving windows overlap at %v", at)
	}
	// Widening b by a month makes them overlap.
	b2 := regionOf([]TimeAtom{nowLE(11)}, nil)
	if ok, _ := Overlaps(a, b2, hz, testUniverses); !ok {
		t.Error("overlapping moving windows not detected")
	}
}

func TestOverlapsAnchoredVsMoving(t *testing.T) {
	hz := testHorizon(t)
	dec99, _ := caltime.ParsePeriod("1999/12")
	anchored := regionOf([]TimeAtom{{
		Unit: caltime.UnitMonth, Op: expr.OpEQ,
		Exprs: []caltime.Expr{caltime.AnchorExpr(dec99)},
	}}, nil)
	moving := regionOf([]TimeAtom{nowLE(6)}, nil)
	// For large enough NOW, months <= NOW-6 includes 1999/12.
	if ok, _ := Overlaps(anchored, moving, hz, testUniverses); !ok {
		t.Error("anchored month should eventually fall under the moving bound")
	}
	// An anchored month beyond the horizon can never be reached.
	far, _ := caltime.ParsePeriod("2030/1")
	anchoredFar := regionOf([]TimeAtom{{
		Unit: caltime.UnitMonth, Op: expr.OpEQ,
		Exprs: []caltime.Expr{caltime.AnchorExpr(far)},
	}}, nil)
	if ok, _ := Overlaps(anchoredFar, moving, hz, testUniverses); ok {
		t.Error("month outside the horizon should not overlap")
	}
}

func TestOverlapsFalseRegion(t *testing.T) {
	hz := testHorizon(t)
	a := regionOf(nil, nil)
	f := Region{False: true}
	if ok, _ := Overlaps(a, f, hz, testUniverses); ok {
		t.Error("false region overlaps")
	}
	if f.At(hz.Min, hz, testUniverses) != nil {
		t.Error("false region satisfiable")
	}
	if a.At(hz.Min, hz, testUniverses) == nil {
		t.Error("unconstrained region unsatisfiable")
	}
}

func TestCoversAtProduct(t *testing.T) {
	hz := testHorizon(t)
	now := mustDay(t, "2000/11/5")

	// a constrains leaves {0,1} with months <= NOW-6.
	a := regionOf([]TimeAtom{nowLE(6)}, leafSet(0, 1))
	// b1 covers leaf 0 fully in time, b2 covers leaf 1 fully in time.
	b1 := regionOf(nil, leafSet(0))
	b2 := regionOf(nil, leafSet(1))
	if !CoversAtTimes(a, now, []Region{b1, b2}, now, hz, testUniverses) {
		t.Error("split cover not detected")
	}
	if CoversAtTimes(a, now, []Region{b1}, now, hz, testUniverses) {
		t.Error("partial cover accepted")
	}

	// Cross cover: b3 covers leaf {0,1} but only old months; b4 covers
	// everything recent. Jointly they cover a.
	b3 := regionOf([]TimeAtom{nowLE(12)}, leafSet(0, 1))
	b4 := regionOf([]TimeAtom{nowGT(12)}, leafSet(0, 1, 2, 3))
	if !CoversAtTimes(a, now, []Region{b3, b4}, now, hz, testUniverses) {
		t.Error("time-partitioned cover not detected")
	}
	if CoversAtTimes(a, now, []Region{b3}, now, hz, testUniverses) {
		t.Error("old-months-only cover accepted")
	}
	// Nothing to cover: empty a is always covered.
	aEmpty := regionOf([]TimeAtom{nowLE(6)}, leafSet())
	if !CoversAtTimes(aEmpty, now, nil, now, hz, testUniverses) {
		t.Error("empty region should be covered by nothing")
	}
}

func TestCoversAlwaysSweep(t *testing.T) {
	hz := Horizon{Min: mustDay(t, "1999/10/1"), Max: mustDay(t, "2000/6/30"), MaxOffset: 400}

	// The paper's Figure 2 situation: a1 alone (months in (NOW-12, NOW-6])
	// does not keep covering cells that fall over its moving lower bound,
	// but adding a2 (months <= NOW-12, expressed here at month unit) does.
	a1 := regionOf([]TimeAtom{nowGT(12), nowLE(6)}, leafSet(0, 1, 2, 3))
	a2 := regionOf([]TimeAtom{nowLE(12)}, leafSet(0, 1, 2, 3))

	// Escape obligation: what a1 stops selecting must be covered by a2.
	// We approximate the spec-level check here by requiring that the
	// union {a1, a2} covers everything <= NOW-6 at every t.
	target := regionOf([]TimeAtom{nowLE(6)}, leafSet(0, 1, 2, 3))
	coversAlways := func(bs []Region) bool {
		for t := hz.SweepStart(); t <= hz.SweepEnd(); t++ {
			if !CoversAtTimes(target, t, bs, t, hz, testUniverses) {
				return false
			}
		}
		return true
	}
	if !coversAlways([]Region{a1, a2}) {
		t.Error("a1 plus a2 should cover all old cells at every t")
	}
	if coversAlways([]Region{a1}) {
		t.Error("a1 alone should fail coverage")
	}
}

func TestCoversProductOrthants(t *testing.T) {
	// Pure set-level sanity: {0,1}x{0,1} covered by {0}x{0,1} and
	// {1}x{0,1} but not by {0}x{0,1} and {1}x{0}.
	mk := func(elems ...int) *Set {
		s := NewSet(2)
		for _, e := range elems {
			s.Add(e)
		}
		return s
	}
	a := []*Set{mk(0, 1), mk(0, 1)}
	if !coversProduct(a, [][]*Set{{mk(0), mk(0, 1)}, {mk(1), mk(0, 1)}}) {
		t.Error("exact partition not detected")
	}
	if coversProduct(a, [][]*Set{{mk(0), mk(0, 1)}, {mk(1), mk(0)}}) {
		t.Error("missing corner accepted")
	}
	if !coversProduct(a, [][]*Set{{mk(0, 1), mk(0, 1)}}) {
		t.Error("superset not detected")
	}
	if coversProduct(a, nil) {
		t.Error("cover by nothing accepted")
	}
}

func TestCoversProductRandomizedAgainstEnumeration(t *testing.T) {
	// Property: coversProduct agrees with brute-force enumeration over a
	// small universe.
	rng := rand.New(rand.NewSource(11))
	mk := func(n int) *Set {
		s := NewSet(3)
		for i := 0; i < 3; i++ {
			if rng.Intn(2) == 0 {
				s.Add(i)
			}
		}
		if s.Empty() {
			s.Add(n % 3)
		}
		return s
	}
	for trial := 0; trial < 300; trial++ {
		a := []*Set{mk(trial), mk(trial + 1)}
		var bs [][]*Set
		for k := 0; k < rng.Intn(3)+1; k++ {
			bs = append(bs, []*Set{mk(k), mk(k + trial)})
		}
		want := true
		for x := 0; x < 3 && want; x++ {
			for y := 0; y < 3 && want; y++ {
				if !a[0].Has(x) || !a[1].Has(y) {
					continue
				}
				covered := false
				for _, b := range bs {
					if b[0].Has(x) && b[1].Has(y) {
						covered = true
						break
					}
				}
				if !covered {
					want = false
				}
			}
		}
		if got := coversProduct(a, bs); got != want {
			t.Fatalf("trial %d: coversProduct = %v, enumeration says %v", trial, got, want)
		}
	}
}

func TestHorizonHelpers(t *testing.T) {
	hz := testHorizon(t)
	if hz.Days() != int(hz.Max-hz.Min)+1 {
		t.Error("Days wrong")
	}
	if hz.DayIndex(hz.Min) != 0 || hz.DayIndex(hz.Max) != hz.Days()-1 {
		t.Error("DayIndex boundaries wrong")
	}
	if hz.DayIndex(hz.Min-1) != -1 || hz.DayIndex(hz.Max+1) != hz.Days() {
		t.Error("DayIndex clamping wrong")
	}
	if hz.SweepStart() >= hz.Min || hz.SweepEnd() <= hz.Max {
		t.Error("sweep must extend beyond the horizon")
	}
	bad := Horizon{Min: 5, Max: 4}
	if bad.Valid() {
		t.Error("degenerate horizon valid")
	}
}
