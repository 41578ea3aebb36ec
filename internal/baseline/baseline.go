// Package baseline implements the data-retention strategies the paper
// positions itself against, behind one interface, so the experiments can
// compare storage and information retention:
//
//   - NoReduction keeps every detail fact (the status quo the paper's
//     introduction motivates against);
//   - AgeDeletion physically deletes facts older than a cutoff, the
//     "simply deleting facts" alternative of Section 4 (vacuuming in the
//     sense of Skyt & Jensen [16]);
//   - ViewExpire maintains one fixed materialized aggregate view and
//     expires detail older than a cutoff, the spirit of Garcia-Molina et
//     al. [6]: storage drops like deletion, totals survive, but only at
//     the single predefined granularity;
//   - SpecReduction wraps the subcube engine: storage drops by gradual
//     aggregation while every granularity the specification retains
//     stays queryable.
package baseline

import (
	"fmt"

	"dimred/internal/caltime"
	"dimred/internal/dims"
	"dimred/internal/mdm"
	"dimred/internal/spec"
	"dimred/internal/storage"
	"dimred/internal/subcube"
)

// Strategy is one retention policy applied to a stream of
// bottom-granularity facts.
type Strategy interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Load ingests one fact.
	Load(refs []mdm.ValueID, meas []float64) error
	// Advance applies the retention policy as of time t.
	Advance(t caltime.Day) error
	// Rows returns the number of stored rows (detail plus any views).
	Rows() int
	// Bytes returns the modeled storage footprint.
	Bytes() int64
	// Total folds measure j over everything still stored; comparing it
	// with the loaded total quantifies information loss.
	Total(j int) float64
}

// Context carries what every strategy needs: the schema, the index of
// the time dimension, and its calendar interpretation.
type Context struct {
	Schema  *mdm.Schema
	TimeIdx int
	Time    *dims.TimeDim
}

func (c Context) layout() storage.Layout {
	return storage.Layout{DimCols: c.Schema.NumDims(), MeasCols: len(c.Schema.Measures)}
}

// dayOf extracts the fact's day from its time-dimension reference.
func (c Context) dayOf(refs []mdm.ValueID) (caltime.Day, error) {
	p, ok := c.Time.PeriodOfValue(refs[c.TimeIdx])
	if !ok || p.Unit != caltime.UnitDay {
		return 0, fmt.Errorf("baseline: fact is not at day granularity")
	}
	return caltime.Day(p.Index), nil
}

// NoReduction keeps everything.
type NoReduction struct {
	ctx   Context
	store *storage.Store
}

// NewNoReduction constructs the keep-everything baseline.
func NewNoReduction(ctx Context) *NoReduction {
	return &NoReduction{ctx: ctx, store: storage.New(ctx.layout())}
}

// Name implements Strategy.
func (s *NoReduction) Name() string { return "no-reduction" }

// Load implements Strategy.
func (s *NoReduction) Load(refs []mdm.ValueID, meas []float64) error {
	_, err := s.store.Append(refs, meas, 1)
	return err
}

// Advance implements Strategy (a no-op).
func (s *NoReduction) Advance(caltime.Day) error { return nil }

// Rows implements Strategy.
func (s *NoReduction) Rows() int { return s.store.Live() }

// Bytes implements Strategy.
func (s *NoReduction) Bytes() int64 { return s.store.Bytes() }

// Total implements Strategy.
func (s *NoReduction) Total(j int) float64 {
	var t float64
	s.store.Scan(func(r storage.RowID) bool { t += s.store.Measure(r, j); return true })
	return t
}

// AgeDeletion deletes facts older than the cutoff span.
type AgeDeletion struct {
	ctx    Context
	cutoff caltime.Span
	store  *storage.Store
	days   []caltime.Day // per row
}

// NewAgeDeletion constructs the vacuuming baseline: on Advance(t), rows
// with day < t - cutoff are physically deleted.
func NewAgeDeletion(ctx Context, cutoff caltime.Span) *AgeDeletion {
	return &AgeDeletion{ctx: ctx, cutoff: cutoff, store: storage.New(ctx.layout())}
}

// Name implements Strategy.
func (s *AgeDeletion) Name() string { return fmt.Sprintf("delete-after-%s", s.cutoff) }

// Load implements Strategy.
func (s *AgeDeletion) Load(refs []mdm.ValueID, meas []float64) error {
	d, err := s.ctx.dayOf(refs)
	if err != nil {
		return err
	}
	if _, err := s.store.Append(refs, meas, 1); err != nil {
		return err
	}
	s.days = append(s.days, d)
	return nil
}

// Advance implements Strategy.
func (s *AgeDeletion) Advance(t caltime.Day) error {
	limit := caltime.SubSpan(t, s.cutoff)
	s.store.Scan(func(r storage.RowID) bool {
		if s.days[r] < limit {
			s.store.Delete(r)
		}
		return true
	})
	if s.store.Rows() > 1024 && s.store.Live()*2 < s.store.Rows() {
		remap := s.store.Compact()
		days := make([]caltime.Day, 0, s.store.Rows())
		for old, nr := range remap {
			if nr >= 0 {
				days = append(days, s.days[old])
			}
		}
		s.days = days
	}
	return nil
}

// Rows implements Strategy.
func (s *AgeDeletion) Rows() int { return s.store.Live() }

// Bytes implements Strategy.
func (s *AgeDeletion) Bytes() int64 { return s.store.Bytes() }

// Total implements Strategy.
func (s *AgeDeletion) Total(j int) float64 {
	var t float64
	s.store.Scan(func(r storage.RowID) bool { t += s.store.Measure(r, j); return true })
	return t
}

// ViewExpire maintains one materialized aggregate view at a fixed
// granularity and expires detail older than the cutoff.
type ViewExpire struct {
	detail *AgeDeletion
	ctx    Context
	gran   mdm.Granularity
	view   *storage.Store
	index  *mdm.CellMap[storage.RowID]
}

// NewViewExpire constructs the view-expiration baseline: the view at the
// given granularity is maintained for all loaded data; detail rows older
// than cutoff are expired.
func NewViewExpire(ctx Context, viewGran mdm.Granularity, cutoff caltime.Span) *ViewExpire {
	return &ViewExpire{
		detail: NewAgeDeletion(ctx, cutoff),
		ctx:    ctx,
		gran:   viewGran,
		view:   storage.New(ctx.layout()),
		index:  mdm.NewCellMap[storage.RowID](ctx.Schema.NumDims()),
	}
}

// Name implements Strategy.
func (s *ViewExpire) Name() string { return "view-expire" }

// Load implements Strategy.
func (s *ViewExpire) Load(refs []mdm.ValueID, meas []float64) error {
	if err := s.detail.Load(refs, meas); err != nil {
		return err
	}
	up, err := s.ctx.Schema.RollUp(nil, refs, s.gran)
	if err != nil {
		return fmt.Errorf("baseline: view-expire: %w", err)
	}
	if r, ok := s.index.Get(up); ok {
		for j, m := range s.ctx.Schema.Measures {
			s.view.SetMeasure(r, j, m.Agg.Merge(s.view.Measure(r, j), m.Agg.Init(meas[j])))
		}
		s.view.AddBase(r, 1)
		return nil
	}
	init := make([]float64, len(meas))
	for j, m := range s.ctx.Schema.Measures {
		init[j] = m.Agg.Init(meas[j])
	}
	r, err := s.view.Append(up, init, 1)
	if err != nil {
		return err
	}
	s.index.Put(up, r)
	return nil
}

// Advance implements Strategy.
func (s *ViewExpire) Advance(t caltime.Day) error { return s.detail.Advance(t) }

// Rows implements Strategy.
func (s *ViewExpire) Rows() int { return s.detail.Rows() + s.view.Live() }

// Bytes implements Strategy.
func (s *ViewExpire) Bytes() int64 { return s.detail.Bytes() + s.view.Bytes() }

// Total implements Strategy: totals come from the view, which is
// maintained for all data ever loaded.
func (s *ViewExpire) Total(j int) float64 {
	var t float64
	s.view.Scan(func(r storage.RowID) bool { t += s.view.Measure(r, j); return true })
	return t
}

// SpecReduction is the paper's technique behind the Strategy interface.
type SpecReduction struct {
	cubes *subcube.CubeSet
}

// NewSpecReduction wraps a reduction specification as a strategy.
func NewSpecReduction(sp *spec.Spec) (*SpecReduction, error) {
	cs, err := subcube.New(sp)
	if err != nil {
		return nil, err
	}
	return &SpecReduction{cubes: cs}, nil
}

// Name implements Strategy.
func (s *SpecReduction) Name() string { return "spec-reduction" }

// Load implements Strategy.
func (s *SpecReduction) Load(refs []mdm.ValueID, meas []float64) error {
	return s.cubes.Insert(refs, meas)
}

// Advance implements Strategy.
func (s *SpecReduction) Advance(t caltime.Day) error {
	_, err := s.cubes.Sync(t)
	return err
}

// Rows implements Strategy.
func (s *SpecReduction) Rows() int { return s.cubes.TotalRows() }

// Bytes implements Strategy.
func (s *SpecReduction) Bytes() int64 { return s.cubes.TotalBytes() }

// Total implements Strategy.
func (s *SpecReduction) Total(j int) float64 {
	var total float64
	for _, c := range s.cubes.Cubes() {
		mo, err := c.MO(s.cubes.Spec().Env().Schema)
		if err != nil {
			return total
		}
		for f := 0; f < mo.Len(); f++ {
			total += mo.Measure(mdm.FactID(f), j)
		}
	}
	return total
}

// Cubes exposes the underlying cube set for queries in experiments.
func (s *SpecReduction) Cubes() *subcube.CubeSet { return s.cubes }
