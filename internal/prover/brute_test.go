package prover

import (
	"math/rand"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/expr"
)

// randomAtom builds a random time atom over month/quarter units with
// anchored or NOW-relative bounds near the test horizon.
func randomAtom(rng *rand.Rand) TimeAtom {
	units := []caltime.Unit{caltime.UnitMonth, caltime.UnitQuarter, caltime.UnitWeek}
	unit := units[rng.Intn(len(units))]
	ops := []expr.Op{expr.OpLT, expr.OpLE, expr.OpEQ, expr.OpGE, expr.OpGT}
	op := ops[rng.Intn(len(ops))]
	var e caltime.Expr
	if rng.Intn(2) == 0 {
		// Anchored somewhere in 1999-2001.
		d := caltime.Date(1999, 1, 1) + caltime.Day(rng.Intn(1000))
		e = caltime.AnchorExpr(caltime.PeriodOf(d, unit))
	} else {
		spanUnits := []caltime.Unit{caltime.UnitMonth, caltime.UnitQuarter}
		e = caltime.NowExpr().Minus(caltime.Span{
			N:    int64(rng.Intn(14)),
			Unit: spanUnits[rng.Intn(len(spanUnits))],
		})
	}
	return TimeAtom{Unit: unit, Op: op, Exprs: []caltime.Expr{e}}
}

func randomRegion(rng *rand.Rand) Region {
	var atoms []TimeAtom
	for i := 0; i < 1+rng.Intn(2); i++ {
		atoms = append(atoms, randomAtom(rng))
	}
	leaf := NewSet(3)
	for i := 0; i < 3; i++ {
		if rng.Intn(2) == 0 {
			leaf.Add(i)
		}
	}
	return Region{Dims: []DimConstraint{
		{IsTime: true, Time: atoms},
		{Fixed: leaf},
	}}
}

// bruteOverlap decides ∃t overlap by direct scan over every (day, leaf,
// t) triple of a small horizon.
func bruteOverlap(a, b Region, hz Horizon, universes []int) bool {
	for t := hz.SweepStart(); t <= hz.SweepEnd(); t++ {
		as := a.At(t, hz, universes)
		if as == nil {
			continue
		}
		bs := b.At(t, hz, universes)
		if bs == nil {
			continue
		}
		ok := true
		for i := range as {
			if !as[i].Intersects(bs[i]) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestOverlapsAgainstBruteForce cross-checks the production Overlaps
// (which short-circuits NOW-free pairs and non-time dimensions) against
// the plain exhaustive scan.
func TestOverlapsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	hz := Horizon{
		Min:       caltime.Date(1999, 6, 1),
		Max:       caltime.Date(2000, 6, 30),
		MaxOffset: 450,
	}
	universes := []int{0, 3}
	for trial := 0; trial < 60; trial++ {
		a := randomRegion(rng)
		b := randomRegion(rng)
		got, _ := Overlaps(a, b, hz, universes)
		want := bruteOverlap(a, b, hz, universes)
		if got != want {
			t.Fatalf("trial %d: Overlaps=%v brute=%v\na=%+v\nb=%+v", trial, got, want, a, b)
		}
	}
}

// TestCoversAtTimesAgainstBruteForce cross-checks CoversAtTimes, called
// the way the Growing check calls it (a at t, the covers at t+1 day),
// against a cell-by-cell scan: every (day, leaf) cell a selects at t
// must be selected by some cover at t+1.
func TestCoversAtTimesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	hz := Horizon{
		Min:       caltime.Date(1999, 10, 1),
		Max:       caltime.Date(2000, 3, 31),
		MaxOffset: 430,
	}
	universes := []int{0, 3}
	var days, leaves []int
	for trial := 0; trial < 25; trial++ {
		a := randomRegion(rng)
		bs := []Region{randomRegion(rng), randomRegion(rng)}
		for ta := hz.SweepStart(); ta <= hz.SweepEnd(); ta += 7 {
			tb := ta + 1
			want := true
			if as := a.At(ta, hz, universes); as != nil {
				var mats [][]*Set
				for _, b := range bs {
					if m := b.At(tb, hz, universes); m != nil {
						mats = append(mats, m)
					}
				}
				days, leaves = as[0].Elems(days[:0]), as[1].Elems(leaves[:0])
				for _, d := range days {
					for _, l := range leaves {
						covered := false
						for _, m := range mats {
							covered = covered || (m[0].Has(d) && m[1].Has(l))
						}
						want = want && covered
					}
				}
			}
			if got := CoversAtTimes(a, ta, bs, tb, hz, universes); got != want {
				t.Fatalf("trial %d, t=%s: CoversAtTimes=%v brute=%v", trial, ta, got, want)
			}
		}
	}
}
