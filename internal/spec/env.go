// Package spec implements data reduction specifications (Section 4 of
// Skyt, Jensen & Pedersen): reduction actions compiled against a schema,
// the partial order <=_V on actions, the evaluation of action predicates
// on cells (the function Pred), the per-dimension aggregation level
// AggLevel_i, the soundness properties NonCrossing and Growing with
// their operational checks (Sections 4.3, 5.2 and 5.3, with the
// theorem-prover obligations discharged by package prover), and the
// insert and delete operators for actions (Definitions 3 and 4).
package spec

import (
	"fmt"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/prover"
)

// TimeModel exposes the calendar interpretation of the time dimension;
// *dims.TimeDim satisfies it.
type TimeModel interface {
	// UnitForCategory maps a category of the time dimension to its
	// calendar unit; ok is false for the top category.
	UnitForCategory(c mdm.CategoryID) (caltime.Unit, bool)
	// Range returns the smallest and largest day value present; ok is
	// false when the dimension has no days yet.
	Range() (min, max caltime.Day, ok bool)
}

// Env binds a schema to its time dimension. At most one dimension may be
// temporal; the NOW variable and time literals may only constrain it, as
// in the paper ("variables occur in predicates only for the time
// dimension").
type Env struct {
	Schema  *mdm.Schema
	TimeDim int // index into Schema.Dims, or -1
	Time    TimeModel
}

// NewEnv creates an environment. timeDimName may be empty for schemas
// with no temporal dimension (NOW-relative actions are then rejected).
func NewEnv(schema *mdm.Schema, timeDimName string, tm TimeModel) (*Env, error) {
	e := &Env{Schema: schema, TimeDim: -1}
	if timeDimName != "" {
		i := schema.DimIndex(timeDimName)
		if i < 0 {
			return nil, fmt.Errorf("spec: no dimension %q in schema", timeDimName)
		}
		if tm == nil {
			return nil, fmt.Errorf("spec: time dimension %q needs a TimeModel", timeDimName)
		}
		e.TimeDim = i
		e.Time = tm
	}
	return e, nil
}

// unitOf resolves the calendar unit of a time-dimension category.
func (e *Env) unitOf(c mdm.CategoryID) (caltime.Unit, bool) {
	if e.Time == nil {
		return 0, false
	}
	return e.Time.UnitForCategory(c)
}

// Universes returns the leaf-universe sizes per dimension for the
// decision procedure (the time dimension's entry is unused). Checks are
// closed-world over the populated values — the same domain knowledge the
// paper feeds its theorem prover (Eq. 29) — except that a dimension with
// no values yet contributes one phantom leaf, standing for "some future
// value that satisfies no specific value constraint", so specification
// checks on an empty warehouse are not vacuous.
func (e *Env) Universes() []int {
	u := make([]int, len(e.Schema.Dims))
	for i, d := range e.Schema.Dims {
		u[i] = len(d.ValuesIn(d.Bottom()))
		if u[i] == 0 {
			u[i] = 1
		}
	}
	return u
}

// Horizon computes the decision-procedure horizon for a set of actions:
// the populated day range of the time dimension, extended to include
// every anchored literal in the actions, padded by the largest NOW
// offset. ok is false when there is no temporal information at all, in
// which case time checks hold vacuously.
func (e *Env) Horizon(actions []*Action) (prover.Horizon, bool) {
	var hz prover.Horizon
	have := false
	if e.Time != nil {
		if min, max, ok := e.Time.Range(); ok {
			hz.Min, hz.Max, have = min, max, true
		}
	}
	var maxOff int64
	for _, a := range actions {
		for _, d := range a.disjuncts {
			for _, tst := range d {
				if !tst.IsTime {
					continue
				}
				for _, ex := range tst.TimeRHS {
					if o := ex.MaxOffsetDays(); o > maxOff {
						maxOff = o
					}
					if u, anchored := ex.BaseUnit(); anchored {
						p := caltime.Period{Unit: u, Index: ex.Anchor.Index}
						lo, hi := p.First(), p.Last()
						if !have {
							hz.Min, hz.Max, have = lo, hi, true
						} else {
							if lo < hz.Min {
								hz.Min = lo
							}
							if hi > hz.Max {
								hz.Max = hi
							}
						}
					}
				}
			}
		}
	}
	if !have {
		if maxOff == 0 {
			// No temporal constraints at all: time checks are vacuous.
			return prover.Horizon{}, false
		}
		// NOW-relative actions over an empty model: the paper requires
		// insert checks to depend on the specification only, and
		// NOW-relative behaviour is translation-invariant, so a
		// synthetic canonical window sized to the offsets decides the
		// checks for data wherever it later arrives.
		hz.Min = caltime.Date(2000, 1, 1)
		hz.Max = caltime.Date(2000, 1, 1) + caltime.Day(2*maxOff+800)
		have = true
	}
	hz.MaxOffset = maxOff
	// Pad by the coarsest period length so boundary periods are complete.
	hz.Min = caltime.PeriodOf(hz.Min, caltime.UnitYear).First() - 1
	hz.Max = caltime.PeriodOf(hz.Max, caltime.UnitYear).Last() + 1
	return hz, true
}
