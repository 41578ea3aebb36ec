// Package dimred is a Go implementation of specification-based data
// reduction in dimensional data warehouses, after Skyt, Jensen &
// Pedersen (TimeCenter TR-61 / ICDE 2002).
//
// A warehouse holds facts characterized by values from dimensions with
// containment hierarchies (e.g. day < week, day < month < quarter <
// year). A data reduction specification is a set of actions, each
// aggregating the facts selected by a predicate — possibly NOW-relative
// — to a coarser granularity, e.g.
//
//	aggregate [Time.month, URL.domain]
//	  where URL.domain_grp = ".com" and Time.month <= NOW - 6 months
//
// The library enforces the paper's soundness properties (NonCrossing and
// Growing), implements the reduction semantics and the query algebra
// over reduced data (selection, projection, aggregate formation under
// mixed granularities), and realizes the whole machinery operationally
// as a set of physical subcubes with parallel query evaluation.
//
// This package re-exports the library's public surface; the
// implementation lives under internal/ (see DESIGN.md for the map).
package dimred

import (
	"io"

	"dimred/internal/caltime"
	"dimred/internal/core"
	"dimred/internal/dims"
	"dimred/internal/ingest"
	"dimred/internal/mdm"
	"dimred/internal/obs"
	"dimred/internal/query"
	"dimred/internal/spec"
	"dimred/internal/subcube"
	"dimred/internal/views"
	"dimred/internal/warehouse"
)

// Calendar time.
type (
	// Day is a civil date: days since 1970-01-01.
	Day = caltime.Day
	// Unit is a calendar granularity (day, week, month, quarter, year).
	Unit = caltime.Unit
	// Period is one calendar period at a unit, e.g. 1999Q4.
	Period = caltime.Period
	// Span is an unanchored interval such as "6 months".
	Span = caltime.Span
	// TimeExpr is an anchored or NOW-relative time expression.
	TimeExpr = caltime.Expr
)

// Calendar units.
const (
	UnitDay     = caltime.UnitDay
	UnitWeek    = caltime.UnitWeek
	UnitMonth   = caltime.UnitMonth
	UnitQuarter = caltime.UnitQuarter
	UnitYear    = caltime.UnitYear
)

// Date constructs a Day from a civil date.
func Date(year, month, day int) Day { return caltime.Date(year, month, day) }

// ParseDay parses "1999/12/4".
func ParseDay(s string) (Day, error) { return caltime.ParseDay(s) }

// ParsePeriod parses "1999/12/4", "1999W48", "1999/12", "1999Q4" or
// "1999".
func ParsePeriod(s string) (Period, error) { return caltime.ParsePeriod(s) }

// Multidimensional model.
type (
	// Dimension is a dimension with partially ordered categories and
	// values.
	Dimension = mdm.Dimension
	// CategoryID identifies a category within a dimension.
	CategoryID = mdm.CategoryID
	// ValueID identifies a dimension value.
	ValueID = mdm.ValueID
	// Schema is an n-dimensional fact schema.
	Schema = mdm.Schema
	// Measure is a measure type with its default aggregate function.
	Measure = mdm.Measure
	// AggKind is a distributive aggregate function.
	AggKind = mdm.AggKind
	// Granularity is one category per dimension.
	Granularity = mdm.Granularity
	// MO is a multidimensional object: schema, facts, dimensions,
	// fact-dimension relations and measures.
	MO = mdm.MO
	// FactID identifies a fact within an MO.
	FactID = mdm.FactID
)

// Aggregate functions.
const (
	AggSum   = mdm.AggSum
	AggCount = mdm.AggCount
	AggMin   = mdm.AggMin
	AggMax   = mdm.AggMax
)

// NewDimension starts building a dimension.
func NewDimension(name string) *Dimension { return mdm.NewDimension(name) }

// NewSchema builds a fact schema.
func NewSchema(factType string, ds []*Dimension, measures []Measure) (*Schema, error) {
	return mdm.NewSchema(factType, ds, measures)
}

// NewMO creates an empty multidimensional object.
func NewMO(s *Schema) *MO { return mdm.NewMO(s) }

// Dimension builders.
type (
	// TimeDim is the paper's Time dimension (parallel week/month
	// hierarchies), populated sparsely via EnsureDay.
	TimeDim = dims.TimeDim
	// URLDim is the ISP example's URL dimension.
	URLDim = dims.URLDim
	// LinearDim is a generic linear hierarchy.
	LinearDim = dims.LinearDim
)

// NewTimeDim constructs an empty Time dimension.
func NewTimeDim() *TimeDim { return dims.NewTimeDim() }

// NewURLDim constructs an empty URL dimension.
func NewURLDim() *URLDim { return dims.NewURLDim() }

// NewLinearDim constructs a linear dimension with the given levels,
// bottom first.
func NewLinearDim(name string, levels ...string) (*LinearDim, error) {
	return dims.NewLinearDim(name, levels...)
}

// PaperObject bundles the paper's Appendix A example MO.
type PaperObject = dims.PaperObject

// PaperMO constructs the running example of the paper (Appendix A).
func PaperMO() (*PaperObject, error) { return dims.PaperMO() }

// Reduction specifications.
type (
	// Env binds a schema to its time dimension.
	Env = spec.Env
	// Action is a compiled reduction action.
	Action = spec.Action
	// Spec is a data reduction specification (always NonCrossing and
	// Growing).
	Spec = spec.Spec
)

// NewEnv binds a schema to its time dimension (pass "" and nil for
// schemas without one).
func NewEnv(schema *Schema, timeDimName string, tm spec.TimeModel) (*Env, error) {
	return spec.NewEnv(schema, timeDimName, tm)
}

// CompileAction parses and compiles an action in concrete syntax, e.g.
// `aggregate [Time.month, URL.domain] where Time.month <= NOW - 6 months`.
func CompileAction(name, src string, env *Env) (*Action, error) {
	return spec.CompileString(name, src, env)
}

// NewSpec builds a specification, verifying NonCrossing and Growing.
func NewSpec(env *Env, actions ...*Action) (*Spec, error) {
	return spec.New(env, actions...)
}

// Reduce computes the reduced MO of Definition 2 at time t, with
// provenance.
func Reduce(s *Spec, mo *MO, t Day) (*core.Result, error) { return core.Reduce(s, mo, t) }

// ReduceResult is the outcome of Reduce: the reduced MO plus provenance.
type ReduceResult = core.Result

// Query algebra.
type (
	// Predicate is a compiled selection predicate.
	Predicate = query.Predicate
	// SelectionApproach picks conservative, liberal or weighted
	// selection.
	SelectionApproach = query.Approach
	// AggregationApproach picks availability, strict, LUB or
	// disaggregated aggregate formation.
	AggregationApproach = query.AggApproach
)

// Selection approaches (Section 6.1).
const (
	Conservative = query.Conservative
	Liberal      = query.Liberal
	Weighted     = query.Weighted
)

// Aggregate-formation approaches (Section 6.3).
const (
	Availability  = query.Availability
	Strict        = query.Strict
	LUB           = query.LUB
	Disaggregated = query.Disaggregated
)

// ParsePredicate parses and compiles a selection predicate.
func ParsePredicate(src string, env *Env) (*Predicate, error) { return query.ParsePred(src, env) }

// Select is the selection operator σ[p](O) at query time t, under the
// conservative or liberal approach. For the weighted approach use
// SelectWeighted, whose per-fact certainty weights feed
// AggregateWeighted.
func Select(mo *MO, p *Predicate, t Day, approach SelectionApproach) (*MO, error) {
	return query.Select(mo, p, t, approach)
}

// SelectWeighted is selection under the weighted approach of Section
// 6.1: the facts that might satisfy the predicate, each with its
// certainty weight (aligned with the result MO's fact ids).
func SelectWeighted(mo *MO, p *Predicate, t Day) (*MO, []float64, error) {
	return query.SelectWeighted(mo, p, t)
}

// AggregateWeighted folds a weighted selection result to the target
// granularity, scaling SUM contributions by the certainty weights —
// the expected-value answers of the weighted approach.
func AggregateWeighted(mo *MO, weights []float64, target Granularity, approach AggregationApproach) (*MO, error) {
	return query.AggregateWeighted(mo, weights, target, approach)
}

// Project is the projection operator π.
func Project(mo *MO, dimNames, measureNames []string) (*MO, error) {
	return query.Project(mo, dimNames, measureNames)
}

// Aggregate is the aggregate formation operator α.
func Aggregate(mo *MO, target Granularity, approach AggregationApproach) (*MO, error) {
	return query.Aggregate(mo, target, approach)
}

// Union merges two MOs over the same schema, combining same-cell facts
// with the default aggregate functions (extended algebra of [13]).
func Union(a, b *MO) (*MO, error) { return query.Union(a, b) }

// Difference returns a's facts whose cell does not occur in b.
func Difference(a, b *MO) (*MO, error) { return query.Difference(a, b) }

// Operational engine.
type (
	// CubeSet is the physical subcube realization of a specification.
	CubeSet = subcube.CubeSet
	// CubeQuery is an OLAP query against a cube set or warehouse.
	CubeQuery = subcube.Query
	// Warehouse is the top-level facade: specification + subcubes +
	// synchronization scheduling + storage accounting.
	Warehouse = warehouse.Warehouse
	// WarehouseStats reports storage state.
	WarehouseStats = warehouse.Stats
	// Metrics is a point-in-time snapshot of the engine's observability
	// counters, gauges and latency histograms (Warehouse.Metrics).
	Metrics = obs.MetricsSnapshot
	// QueryTrace is a per-query execution trace: subcubes consulted or
	// pruned, rows scanned versus kept, per-stage durations — or, for a
	// view-served answer, one "views.Answer" stage and no cube entries
	// (Warehouse.QueryTraced).
	QueryTrace = obs.Trace
	// CubeQueryTrace is one subcube's entry in a QueryTrace.
	CubeQueryTrace = obs.CubeTrace
	// LatencySnapshot summarizes one latency histogram (count, mean,
	// bucket-bounded p50/p95/p99, max).
	LatencySnapshot = obs.HistogramSnapshot
	// ViewConfig budgets the materialized rollup-view lattice
	// (Warehouse.EnableViews): MaxBytes caps the modeled bytes the view
	// set may retain, MaxViews its cardinality; the zero value applies
	// the package defaults. Views answer predicate-free availability
	// queries from the smallest fresh materialized ancestor and are
	// invalidated, never served stale, across loads, clock advances and
	// specification updates.
	ViewConfig = views.Config
	// IngestConfig tunes the streaming-ingest compactor
	// (Warehouse.StartIngest): MinBatch is its group-commit threshold;
	// the zero value applies the package default. Ingested facts are absorbed without
	// blocking the served snapshot and folded into the subcube DAG by a
	// background compactor; a fact arriving after its region was reduced
	// lands at its cell's granularity immediately, exactly as if it had
	// been present for the original reduction.
	//
	// Growing a dimension (EnsureDay, EnsureURL, AddValue) is not
	// synchronized with a live warehouse: the compactor and lock-free
	// readers read the dimensions while it runs. Resolve the values a
	// producer will reference before StartIngest or any concurrent
	// Ingest/Query, as bench/ does.
	IngestConfig = ingest.Config
)

// NewCubeSet builds the subcube layout for a specification.
func NewCubeSet(s *Spec) (*CubeSet, error) { return subcube.New(s) }

// ParseQuery builds a cube query from the aggregate [..] where ..
// syntax.
func ParseQuery(src string, env *Env) (CubeQuery, error) { return subcube.ParseQuery(src, env) }

// Open creates a warehouse over the environment and initial actions.
func Open(env *Env, actions ...*Action) (*Warehouse, error) {
	return warehouse.Open(env, actions...)
}

// LoadedDims exposes the dimensions reconstructed by LoadWarehouse.
type LoadedDims = warehouse.LoadedDims

// LoadWarehouse reconstructs a warehouse from a snapshot previously
// written with Warehouse.Save: same dimensions (and value ids), same
// specification, same rows and clock.
func LoadWarehouse(r io.Reader) (*Warehouse, *LoadedDims, error) {
	return warehouse.Load(r)
}
