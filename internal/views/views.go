// Package views implements a budgeted set of materialized rollup views
// over the category-type lattice (Gray et al.'s data cube, the
// hierarchical-datacube reduced representations). The subcube DAG stores
// facts at the specification's granularities; every query still folds
// them up to its requested Group_high level. Because the default
// aggregate functions are distributive (Definition 6, tested by
// TestTwoStepAggregationDistributive), the two-step availability fold
// α[G_q](α[G](O)) equals the direct α[G_q](O) whenever G <=_g G_q, even
// when O holds facts the reduction stored above G — so a view
// materialized once at G answers every query at or above G exactly, for
// a fraction of the scan, and a query at G itself is the view as stored.
// A query whose predicate G decides is answered from the view filtered
// first: selection commutes with roll-up there (law L1).
//
// A greedy selector picks which granularities to materialize by
// observed benefit: query-shape frequencies from the obs trace times
// estimated rows saved, per estimated byte, capped by a configurable
// byte budget (the ViewBytes gauge accounts the spend). Build evaluates
// each picked granularity as an ordinary query on the unpublished
// working side, inside the commit, and the set is published inside the
// immutable snapshot, so readers never observe a half-built view; a
// stale view (older clock, older spec generation) is skipped, never
// served.
package views

import (
	"sort"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/obs"
	"dimred/internal/query"
	"dimred/internal/spec"
	"dimred/internal/storage"
	"dimred/internal/subcube"
)

// Default budget: enough for every rollup level of a mid-size schema
// while staying far below the base cube storage.
const (
	DefaultMaxBytes int64 = 4 << 20
	DefaultMaxViews       = 8
)

// Config bounds the materialized view set.
type Config struct {
	// MaxBytes caps the modeled bytes the view set may retain
	// (<= 0 selects DefaultMaxBytes).
	MaxBytes int64
	// MaxViews caps how many granularities are materialized
	// (<= 0 selects DefaultMaxViews).
	MaxViews int
}

func (c Config) withDefaults() Config {
	if c.MaxBytes <= 0 {
		c.MaxBytes = DefaultMaxBytes
	}
	if c.MaxViews <= 0 {
		c.MaxViews = DefaultMaxViews
	}
	return c
}

// View is one materialized rollup: the full warehouse content
// aggregated to a single granularity G under availability, α[G](O). A
// fact the reduction already stored above G stays where it is, so the
// view of a reduced warehouse holds mixed granularities; availability
// folds such a view exactly to any level G rolls up to, as it folds O.
type View struct {
	gran  mdm.Granularity
	key   string
	mo    *mdm.MO
	rows  int
	bytes int64
}

// Gran returns the view's granularity.
func (v *View) Gran() mdm.Granularity { return v.gran }

// Key returns the view's shape key (spec.EncodeGran of the granularity).
func (v *View) Key() string { return v.key }

// Rows returns the view's fact count.
func (v *View) Rows() int { return v.rows }

// Bytes returns the view's modeled storage bytes.
func (v *View) Bytes() int64 { return v.bytes }

// MO returns the materialized aggregate. Treat it as read-only: once
// the set is published inside a snapshot it is shared by lock-free
// readers.
func (v *View) MO() *mdm.MO { return v.mo }

// Set is one published generation of materialized views, built in a
// single commit and frozen: the clock and specification generation it
// was built at gate every serve, so a reader holding a snapshot whose
// views predate its cubes (impossible today) or querying at another
// clock falls back to the base subcubes.
type Set struct {
	builtAt caltime.Day
	gen     uint64
	// synced records whether the cube set was synchronized at builtAt, so
	// a reader can report it without reading the cube set.
	synced bool
	views  []*View // sorted by rows ascending, key ascending
	bytes  int64
}

// BuiltAt returns the clock the set was materialized at.
func (s *Set) BuiltAt() caltime.Day { return s.builtAt }

// Generation returns the specification generation the set was built
// under.
func (s *Set) Generation() uint64 { return s.gen }

// Synced reports whether the cube set the views were built from was
// synchronized at BuiltAt. A served answer is at BuiltAt, so it is what a
// trace of a view hit reports.
func (s *Set) Synced() bool { return s.synced }

// Len returns the number of materialized views.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.views)
}

// Bytes returns the modeled bytes the set retains.
func (s *Set) Bytes() int64 {
	if s == nil {
		return 0
	}
	return s.bytes
}

// Views returns the materialized views, smallest first.
func (s *Set) Views() []*View { return s.views }

// Build materializes the candidate granularities from cs at clock t,
// using the cube set's own parallel evaluation machinery, and returns
// them as a frozen Set stamped with cs's specification generation and
// whether cs was synchronized at t.
//
// Candidates are built in selection order; one whose actual size would
// overflow the byte budget is dropped (the estimate undershot). A view
// is α[G](O) under availability whatever granularities the reduced
// facts sit at: folding it to a coarser target equals folding O there
// (TestTwoStepAggregationDistributive states the law on reduced input).
// Per-view failures never fail the build — the query path falls back to
// the base subcubes — and met counts each materialized view in
// ViewBuilds. A build is not a user query: each view is evaluated through
// CubeSet.EvaluateUncounted, so cs's query counters do not move.
func Build(env *spec.Env, cs *subcube.CubeSet, cands []Candidate, t caltime.Day, cfg Config, met *obs.Metrics) *Set {
	cfg = cfg.withDefaults()
	layout := storage.Layout{DimCols: env.Schema.NumDims(), MeasCols: len(env.Schema.Measures)}
	last, synced := cs.LastSync()
	set := &Set{builtAt: t, gen: cs.Spec().Generation(), synced: synced && last == t}
	for _, cand := range cands {
		if len(set.views) >= cfg.MaxViews {
			break
		}
		mo, err := cs.EvaluateUncounted(subcube.Query{
			Target: cand.Gran,
			Sel:    query.Conservative,
			Agg:    query.Availability,
		}, t)
		if err != nil {
			continue
		}
		bytes := int64(mo.Len()) * layout.RowBytes()
		if set.bytes+bytes > cfg.MaxBytes {
			continue
		}
		set.views = append(set.views, &View{
			gran:  cand.Gran,
			key:   cand.Key,
			mo:    mo,
			rows:  mo.Len(),
			bytes: bytes,
		})
		set.bytes += bytes
		met.ViewBuilds.Inc()
	}
	if len(set.views) == 0 {
		return nil
	}
	sort.Slice(set.views, func(i, j int) bool {
		if set.views[i].rows != set.views[j].rows {
			return set.views[i].rows < set.views[j].rows
		}
		return set.views[i].key < set.views[j].key
	})
	return set
}

// Serving returns the view a query at target under pred (nil for none)
// reads, and whether it is materialized at exactly that granularity: of
// the views that decide pred (query.Predicate.DecidedAt), the exact view
// when the set has one, otherwise the smallest that rolls up to the
// target (the views are sorted smallest-first, so the first eligible one
// minimizes the rows folded), otherwise nil. The exact view is preferred
// because row order alone does not find it: a finer view with as many
// rows sorts beside the exact one, and folding it reproduces, cell for
// cell, what the exact view already holds. Freshness is Serve's check,
// not this one's.
func (s *Set) Serving(schema *mdm.Schema, target mdm.Granularity, pred *query.Predicate) (v *View, exact bool) {
	if s == nil || len(target) != schema.NumDims() {
		return nil, false
	}
	var smallest *View
	for _, v := range s.views {
		if pred != nil && !pred.DecidedAt(v.gran) {
			continue
		}
		if schema.GranEq(v.gran, target) {
			return v, true
		}
		if smallest == nil && spec.RollupReachableSchema(schema, v.gran, target) {
			smallest = v
		}
	}
	return smallest, false
}

// Answer is Serve without the serving view's key and exactness, for
// callers that need only the answer (bench/'s traced view path).
func (s *Set) Answer(schema *mdm.Schema, q subcube.Query, t caltime.Day, gen uint64) (*mdm.MO, bool) {
	mo, _, _ := s.Serve(schema, q, t, gen)
	return mo, mo != nil
}

// Serve tries to answer q from the set and reports what its one Serving
// lookup found: the key of the view that served q ("" on a miss, when mo
// is nil) and whether that view sits at exactly the target. The set must
// have been built at exactly clock t under specification generation gen
// (staleness is never observable — a stale set is skipped, not served),
// q must aggregate under availability, and some view's granularity must
// roll up to q's target and decide q's predicate (Serving). Strict, LUB and Disaggregated derive
// their effective target or per-row shares from the base facts, which a
// pre-rolled view no longer exposes.
//
// A predicate-free query at a view's exact granularity is the view as
// stored — aggregating it again would map every fact onto its own cell
// and re-derive the names, base counts and COUNT measures it already
// carries — so the caller gets a borrow of it (mdm.MO.Borrow): it reads
// the view's columns, which no one writes once the set is published, and
// copies them only if the caller writes the answer. Only a target
// strictly above the serving view is folded, by query.Aggregate.
//
// A predicate is served only from a view whose granularity decides it
// (query.Predicate.DecidedAt): the view's rows then pass through the
// query's own query.Selector, which decides each one, a row the reduction
// stored above the view's granularity included, as the base path decides
// a stored row; the weighted approach scales the kept rows' sums by their
// certainty (query.ScaleSums) before any fold. Selection commutes with
// roll-up at a deciding granularity (law L1), so the answer is the base
// path's. A filtered answer is a fresh MO, never the published view.
//
// Serve hands out the key rather than the *View: everything a caller
// takes away from it is safe to write, while a write through a *View
// would reach the published view itself. It reads only the set and its
// views, never a cube set: gen is the caller's record of its cube set's
// generation, so a caller that has not pinned that cube set may still be
// served. An aggregation error reports a miss so the base path
// recomputes (and surfaces the real error, if any).
func (s *Set) Serve(schema *mdm.Schema, q subcube.Query, t caltime.Day, gen uint64) (mo *mdm.MO, view string, exact bool) {
	if s == nil || s.builtAt != t || s.gen != gen || q.Agg != query.Availability {
		return nil, "", false
	}
	v, exact := s.Serving(schema, q.Target, q.Pred)
	if v == nil {
		return nil, "", false
	}
	if q.Pred == nil && exact {
		return v.mo.Borrow(), v.key, true
	}
	mo = v.mo
	if q.Pred != nil {
		sel := q.Pred.Selector(t, q.Sel)
		var err error
		if mo, err = query.Filter(mo, sel); err != nil {
			return nil, "", false
		}
		if q.Sel == query.Weighted {
			query.ScaleSums(mo, sel.Weights)
		}
		if exact {
			return mo, v.key, true
		}
	}
	mo, err := query.Aggregate(mo, q.Target, q.Agg)
	if err != nil {
		return nil, "", false
	}
	return mo, v.key, false
}
