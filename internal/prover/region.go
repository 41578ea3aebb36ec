package prover

import (
	"fmt"

	"dimred/internal/caltime"
	"dimred/internal/expr"
)

// Horizon bounds the day range over which time constraints are decided:
// [Min, Max] must cover every day the model can reference, and MaxOffset
// is the largest |NOW ± spans| offset (in days) appearing in any
// predicate under consideration. NOW is swept over
// [Min - MaxOffset - 2, Max + MaxOffset + 2]; beyond that range every
// NOW-relative window has saturated against the model, so the sweep is
// exhaustive.
type Horizon struct {
	Min, Max  caltime.Day
	MaxOffset int64
}

// Days returns the number of days in the horizon (the time universe).
func (h Horizon) Days() int { return int(h.Max-h.Min) + 1 }

// SweepStart returns the first NOW binding of the exhaustive sweep.
func (h Horizon) SweepStart() caltime.Day { return h.Min - caltime.Day(h.MaxOffset) - 2 }

// SweepEnd returns the last NOW binding of the exhaustive sweep.
func (h Horizon) SweepEnd() caltime.Day { return h.Max + caltime.Day(h.MaxOffset) + 2 }

// Valid reports whether the horizon is non-degenerate.
func (h Horizon) Valid() bool { return h.Max >= h.Min }

// DayIndex converts a day to an index in the time universe; out-of-range
// days clamp to -1 / Days().
func (h Horizon) DayIndex(d caltime.Day) int {
	if d < h.Min {
		return -1
	}
	if d > h.Max {
		return h.Days()
	}
	return int(d - h.Min)
}

// TimeAtom is one time constraint of a DNF disjunct: a comparison
// ("Time.month <= NOW - 6 months", Op in LT..GT with a single
// expression) or a membership test (Op In/NotIn with the member
// expressions). Unit is the calendar unit of the referenced category.
type TimeAtom struct {
	Unit  caltime.Unit
	Op    expr.Op
	Exprs []caltime.Expr
}

// NowRelative reports whether the atom's bounds move with NOW.
func (a TimeAtom) NowRelative() bool {
	for _, e := range a.Exprs {
		if e.IsNowRelative() {
			return true
		}
	}
	return false
}

// DaysAt materializes the set of day indices satisfying the atom with
// NOW bound to now, over the horizon.
func (a TimeAtom) DaysAt(now caltime.Day, hz Horizon) *Set {
	s := NewSet(hz.Days())
	switch a.Op {
	case expr.OpIn, expr.OpNotIn:
		for _, e := range a.Exprs {
			p := e.EvalPeriod(now, a.Unit)
			s.AddRange(hz.DayIndex(p.First()), hz.DayIndex(p.Last()))
		}
		if a.Op == expr.OpNotIn {
			s.Complement()
		}
		return s
	}
	p := a.Exprs[0].EvalPeriod(now, a.Unit)
	switch a.Op {
	case expr.OpLT:
		s.AddRange(0, hz.DayIndex(p.First()-1))
	case expr.OpLE:
		s.AddRange(0, hz.DayIndex(p.Last()))
	case expr.OpEQ:
		s.AddRange(hz.DayIndex(p.First()), hz.DayIndex(p.Last()))
	case expr.OpNE:
		s.AddRange(hz.DayIndex(p.First()), hz.DayIndex(p.Last()))
		s.Complement()
	case expr.OpGE:
		s.AddRange(hz.DayIndex(p.First()), hz.Days()-1)
	case expr.OpGT:
		s.AddRange(hz.DayIndex(p.Last()+1), hz.Days()-1)
	default:
		panic(fmt.Sprintf("prover: TimeAtom.DaysAt: bad op %v", a.Op))
	}
	return s
}

// DimConstraint is the constraint of one DNF disjunct on one dimension.
// For non-time dimensions, Fixed is a leaf-value bitset (nil means
// unconstrained). For the time dimension, Time is a conjunction of time
// atoms (empty means unconstrained) and Fixed is nil.
type DimConstraint struct {
	Fixed  *Set
	Time   []TimeAtom
	IsTime bool
}

// Region is one DNF disjunct compiled against a schema: the conjunction
// of its per-dimension constraints. A Region with False set selects
// nothing.
type Region struct {
	Dims  []DimConstraint
	False bool
}

// NowRelative reports whether any constraint moves with NOW.
func (r Region) NowRelative() bool {
	for _, dc := range r.Dims {
		for _, a := range dc.Time {
			if a.NowRelative() {
				return true
			}
		}
	}
	return false
}

// At materializes the region at NOW = now as one bitset per dimension.
// universes[i] is the leaf-universe size of dimension i (ignored for the
// time dimension, whose universe is the horizon). A nil return means the
// region is empty at now.
func (r Region) At(now caltime.Day, hz Horizon, universes []int) []*Set {
	if r.False {
		return nil
	}
	out := make([]*Set, len(r.Dims))
	for i, dc := range r.Dims {
		var s *Set
		if dc.IsTime {
			s = Full(hz.Days())
			for _, a := range dc.Time {
				s.IntersectWith(a.DaysAt(now, hz))
			}
		} else if dc.Fixed != nil {
			s = dc.Fixed.Clone()
		} else {
			s = Full(universes[i])
		}
		if s.Empty() {
			return nil
		}
		out[i] = s
	}
	return out
}

// Overlaps decides the paper's line-4 check of the noncrossing algorithm:
// does there exist a time t at which regions a and b select a common
// cell. It returns the first witnessing t when found.
func Overlaps(a, b Region, hz Horizon, universes []int) (bool, caltime.Day) {
	return OverlapsShifted(a, b, 0, hz, universes)
}

// OverlapsShifted decides whether there exists a time t at which region
// a (materialized at NOW = t) and region b (materialized at NOW = t +
// shift days) select a common cell. The subcube engine uses shift = 1 to
// detect migration edges: a cell leaving a's region can enter b's the
// next day even when the regions never overlap at the same instant.
func OverlapsShifted(a, b Region, shift caltime.Day, hz Horizon, universes []int) (bool, caltime.Day) {
	if a.False || b.False {
		return false, 0
	}
	if !hz.Valid() {
		return false, 0
	}
	// Non-time dimensions are t-independent: check them once.
	for i := range a.Dims {
		if a.Dims[i].IsTime {
			continue
		}
		sa, sb := a.Dims[i].Fixed, b.Dims[i].Fixed
		if sa != nil && sb != nil && !sa.Intersects(sb) {
			return false, 0
		}
		if (sa != nil && sa.Empty()) || (sb != nil && sb.Empty()) {
			return false, 0
		}
	}
	// If neither region is NOW-relative a single evaluation decides.
	sweepStart, sweepEnd := hz.SweepStart(), hz.SweepEnd()
	if !a.NowRelative() && !b.NowRelative() {
		sweepEnd = sweepStart
	}
	for t := sweepStart; t <= sweepEnd; t++ {
		if overlapAt(a, b, t, shift, hz, universes) {
			return true, t
		}
	}
	return false, 0
}

func overlapAt(a, b Region, t, shift caltime.Day, hz Horizon, universes []int) bool {
	as := a.At(t, hz, universes)
	if as == nil {
		return false
	}
	bs := b.At(t+shift, hz, universes)
	if bs == nil {
		return false
	}
	for i := range as {
		if !as[i].Intersects(bs[i]) {
			return false
		}
	}
	return true
}

// CoversAtTimes decides whether every cell selected by a at NOW = ta is
// selected by some region in bs at NOW = tb, by orthant decomposition of
// the product space. The Growing check uses it with tb = ta + 1 day:
// cells an action selects today must still be aggregated at least as
// high tomorrow.
func CoversAtTimes(a Region, ta caltime.Day, bs []Region, tb caltime.Day, hz Horizon, universes []int) bool {
	as := a.At(ta, hz, universes)
	if as == nil {
		return true // nothing to cover
	}
	var mats [][]*Set
	for _, b := range bs {
		if m := b.At(tb, hz, universes); m != nil {
			mats = append(mats, m)
		}
	}
	return coversProduct(as, mats)
}

// coversProduct reports whether the product set given by dims is covered
// by the union of the product sets in bs. It removes bs[0] from the
// product via orthant decomposition and recurses on the pieces.
func coversProduct(dims []*Set, bs [][]*Set) bool {
	empty := false
	for _, d := range dims {
		if d.Empty() {
			empty = true
			break
		}
	}
	if empty {
		return true
	}
	if len(bs) == 0 {
		return false
	}
	b := bs[0]
	rest := bs[1:]
	// Decompose dims \ b into orthants: for each dimension i, the piece
	// where dims 0..i-1 are inside b and dim i is outside b.
	for i := range dims {
		piece := make([]*Set, len(dims))
		degenerate := false
		for j := range dims {
			switch {
			case j < i:
				piece[j] = dims[j].Clone().IntersectWith(b[j])
			case j == i:
				piece[j] = dims[j].Clone().MinusWith(b[j])
			default:
				piece[j] = dims[j]
			}
			if piece[j].Empty() {
				degenerate = true
				break
			}
		}
		if degenerate {
			continue
		}
		if !coversProduct(piece, rest) {
			return false
		}
	}
	return true
}
