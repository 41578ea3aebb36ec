package subcube

import (
	"fmt"
	"sync"

	"dimred/internal/caltime"
	"dimred/internal/expr"
	"dimred/internal/mdm"
	"dimred/internal/obs"
	"dimred/internal/query"
	"dimred/internal/spec"
	"dimred/internal/storage"
)

// Query is an OLAP query against a cube set: an optional selection
// predicate followed by aggregate formation to the target granularity,
// i.e. α[Target](σ[Pred](O)).
type Query struct {
	Pred   *query.Predicate // nil selects everything
	Target mdm.Granularity
	Sel    query.Approach
	Agg    query.AggApproach
}

// ParseQuery builds a Query from the action-specification syntax, e.g.
// "aggregate [Time.month, URL.domain_grp] where 1999/6 < Time.month and
// Time.month <= 2000/5", with the paper's default approaches
// (conservative selection, availability aggregation).
func ParseQuery(src string, env *spec.Env) (Query, error) {
	parsed, err := expr.ParseAction(src)
	if err != nil {
		return Query{}, fmt.Errorf("subcube: ParseQuery: %w", err)
	}
	target, err := env.Schema.ResolveGranularity(len(parsed.Targets), func(i int) (string, string, bool) {
		return parsed.Targets[i].Dim, parsed.Targets[i].Cat, true
	})
	if err != nil {
		return Query{}, fmt.Errorf("subcube: ParseQuery: %w", err)
	}
	var pred *query.Predicate
	if parsed.Pred != nil {
		if b, ok := parsed.Pred.(expr.Bool); !ok || !b.Value {
			pred, err = query.CompilePred(parsed.Pred, env)
			if err != nil {
				return Query{}, fmt.Errorf("subcube: ParseQuery: %w", err)
			}
		}
	}
	return Query{Pred: pred, Target: target, Sel: query.Conservative, Agg: query.Availability}, nil
}

// ViewEligible reports whether the query may be answered from a
// materialized rollup view: no selection predicate (predicate
// evaluation is granularity-sensitive — the conservative, liberal and
// weighted approaches disagree exactly on rows a view has pre-folded
// away) and the paper's default availability aggregation (the other
// approaches derive their effective target or per-row weights from the
// base fact set, which a pre-rolled view no longer exposes).
func (q Query) ViewEligible() bool {
	return q.Pred == nil && q.Agg == query.Availability
}

// MustParseQuery panics on error; for constant query strings.
func MustParseQuery(src string, env *spec.Env) Query {
	q, err := ParseQuery(src, env)
	if err != nil {
		panic(err)
	}
	return q
}

// Evaluate runs the query at time t following Section 7.3: each subcube
// is evaluated independently and in parallel; when the cube set is not
// synchronized at t, each subcube's input is first replaced by its
// synchronized view α[G_i]σ[P_i](K_i ∪ parents(K_i)) — the rows, from
// the cube and its parent cubes, whose current aggregation level is G_i,
// rolled up to G_i. The disjoint subresults are then combined by one
// final distributive aggregation to the query's target granularity
// (query.Combine).
func (cs *CubeSet) Evaluate(q Query, t caltime.Day) (*mdm.MO, error) {
	return cs.EvaluateTraced(q, t, nil)
}

// EvaluateTraced runs the query like Evaluate and additionally fills tr
// (when non-nil) with which subcubes were consulted or zone-map-pruned,
// rows scanned versus kept per cube, and per-stage durations. Each
// parallel goroutine writes only its own pre-sized trace entry and
// publishes engine counters with single atomic adds, so tracing adds no
// locks to the scan path.
func (cs *CubeSet) EvaluateTraced(q Query, t caltime.Day, tr *obs.Trace) (*mdm.MO, error) {
	if len(q.Target) != cs.env.Schema.NumDims() {
		return nil, fmt.Errorf("subcube: Evaluate: target granularity needs %d categories", cs.env.Schema.NumDims())
	}
	clk := cs.met.Clock()
	start := clk.Now()
	cs.met.Queries.Inc()
	subresults, err := cs.evaluateCubes(q, t, tr)
	scanDone := clk.Now()
	if tr != nil {
		tr.AddStage(obs.StageScan, scanDone.Sub(start))
	}
	if err != nil {
		return nil, err
	}

	// The subresults are disjoint parts of the answer, each already at
	// the query's granularity: merging them by cell joins the cells that
	// were split across subcubes (fact_45 + fact_9 → fact_459 in Figure
	// 8) — sound because the default aggregate functions are
	// distributive.
	out, err := query.Combine(cs.env.Schema, subresults, q.Target, q.Agg)
	now := clk.Now()
	cs.met.QueryDuration.Observe(now.Sub(start))
	if tr != nil {
		tr.AddStage(obs.StageCombine, now.Sub(scanDone))
		tr.Total = now.Sub(start)
		if err == nil {
			tr.ResultCells = out.Len()
		}
	}
	return out, err
}

// evaluateCubes is the per-subcube half of EvaluateTraced: it returns,
// in cube order, each consulted cube's selection aggregated to the
// query's target (nil for a cube the zone map pruned), synchronized or
// not, and fills tr's per-cube entries.
func (cs *CubeSet) evaluateCubes(q Query, t caltime.Day, tr *obs.Trace) ([]*mdm.MO, error) {
	clk := cs.met.Clock()
	synced := cs.synced && cs.lastSync == t
	if tr != nil {
		tr.Synced = synced
		tr.Cubes = make([]obs.CubeTrace, len(cs.cubes))
		for i, c := range cs.cubes {
			tr.Cubes[i] = obs.CubeTrace{Cube: c.id, Granularity: cs.env.Schema.GranString(c.gran)}
		}
	}

	// Zone-map pruning: a cube whose day-range hull cannot intersect the
	// predicate's time bounds contributes nothing (sound for every
	// approach — the hull covers all drill-down days of every row).
	// Pruning applies only in the synchronized state; a stale cube may
	// still feed rows into other cubes' views.
	var predLo, predHi caltime.Day
	pruneByTime := false
	if synced && q.Pred != nil {
		predLo, predHi, pruneByTime = q.Pred.TimeBounds(t)
	}

	// Unsynchronized queries rebuild each cube's view per row; compile
	// the specification once and share the day-pinned router across the
	// per-cube goroutines (each carries its own probe counter).
	var baseEval cellEval
	if !synced {
		baseEval = cs.newCellEval(cs.sp, t)
	}

	subresults := make([]*mdm.MO, len(cs.cubes))
	errs := make([]error, len(cs.cubes))
	evals := make([]*cellEval, len(cs.cubes))
	var wg sync.WaitGroup
	for i, c := range cs.cubes {
		if pruneByTime {
			if lo, hi, ok := c.DayRange(); ok && (hi < predLo || lo > predHi) {
				cs.met.CubesPruned.Inc()
				if tr != nil {
					tr.Cubes[i].Pruned = true
				}
				continue // the cube cannot contribute
			}
		}
		cs.met.CubesConsulted.Inc()
		wg.Add(1)
		go func(i int, c *Cube) {
			defer wg.Done()
			cubeStart := clk.Now()
			var mo *mdm.MO
			var weights []float64
			var err error
			scanned, kept := 0, 0
			if synced {
				// Fast path: evaluate the predicate during the cube scan
				// and materialize only the selected rows (with their
				// certainty weights under the weighted approach).
				mo, weights, scanned, kept, err = cs.selectedMO(c, q, t)
			} else {
				e := &cellEval{router: baseEval.router, sp: baseEval.sp, t: baseEval.t}
				evals[i] = e
				mo, scanned, err = cs.viewOf(c, e)
				if err == nil && q.Pred != nil {
					if q.Sel == query.Weighted {
						mo, weights, err = query.SelectWeighted(mo, q.Pred, t)
					} else {
						mo, err = query.Select(mo, q.Pred, t, q.Sel)
					}
				}
				if err == nil {
					kept = mo.Len()
				}
			}
			cs.met.RowsScanned.Add(int64(scanned))
			cs.met.RowsSelected.Add(int64(kept))
			if tr != nil {
				e := &tr.Cubes[i]
				e.FastPath = synced
				e.RowsScanned = scanned
				e.RowsKept = kept
				e.Duration = clk.Since(cubeStart)
			}
			if err != nil {
				errs[i] = err
				return
			}
			if weights != nil {
				// Weighted approach: scale each row's SUM contributions
				// by its certainty weight while folding to the target
				// (Definition 5/6 expected values). The pre-scaled
				// subresult stays distributive, so the cross-cube
				// combine needs no weights.
				subresults[i], errs[i] = query.AggregateWeighted(mo, weights, q.Target, q.Agg)
			} else {
				subresults[i], errs[i] = query.Aggregate(mo, q.Target, q.Agg)
			}
		}(i, c)
	}
	wg.Wait()
	var probes int64
	for _, e := range evals {
		if e != nil {
			probes += e.probes
		}
	}
	if probes > 0 {
		cs.met.ProgramProbes.Add(probes)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return subresults, nil
}

// selectedMO materializes the rows of cube c that satisfy the query's
// predicate (under its selection approach) as an MO, evaluating the
// predicate against storage rows directly. Under the weighted approach
// it also returns each kept row's certainty weight, aligned with the
// result MO's fact ids (cube cells are unique, so AddFactAt never
// merges and the alignment holds). It reports how many rows the scan
// visited and how many survived the predicate, for the observability
// layer.
func (cs *CubeSet) selectedMO(c *Cube, q Query, t caltime.Day) (mo *mdm.MO, weights []float64, scanned, kept int, err error) {
	mo = mdm.NewMO(cs.env.Schema)
	mo.SetFloors(c.gran)
	var keep func(cell []mdm.ValueID) bool
	if q.Pred != nil {
		prep := q.Pred.Prepare(t)
		keep = func(cell []mdm.ValueID) bool {
			cons, lib, w := prep.EvaluateCell(query.Cell(cell))
			switch q.Sel {
			case query.Liberal:
				return lib
			case query.Weighted:
				// Match SelectWeighted: keep rows that might satisfy,
				// carrying the certainty out to the aggregation fold.
				if lib && w > 0 {
					weights = append(weights, w)
					return true
				}
				return false
			}
			return cons
		}
	}
	scanned, err = c.AppendTo(mo, keep)
	return mo, weights, scanned, mo.Len(), err
}

// viewOf builds the synchronized view of cube c at the evaluator's day
// from c and its parent cubes: the rows whose current aggregation level
// equals c's granularity, rolled up to it and merged by cell. scanned
// reports the rows visited across the cube and its parents. The
// per-row up/meas scratch is hoisted: MO.AddFactAt copies its inputs.
func (cs *CubeSet) viewOf(c *Cube, e *cellEval) (mo *mdm.MO, scanned int, err error) {
	schema := cs.env.Schema
	mo = mdm.NewMO(schema)
	mo.SetFloors(c.gran)
	held := mdm.NewCellMap[mdm.FactID](schema.NumDims())

	sources := append([]*Cube{c}, c.parents...)
	cell := make([]mdm.ValueID, schema.NumDims())
	level := make(mdm.Granularity, schema.NumDims())
	var up []mdm.ValueID
	meas := make([]float64, len(schema.Measures))
	for _, src := range sources {
		var failed error
		src.store.Scan(func(r storage.RowID) bool {
			scanned++
			src.store.Refs(r, cell)
			if e.deletedBy(cell) != nil {
				return true // already past its deletion time
			}
			e.aggLevelInto(cell, level, nil)
			if !schema.GranEq(level, c.gran) {
				return true
			}
			if up, failed = schema.RollUp(up[:0], cell, level); failed != nil {
				failed = fmt.Errorf("subcube: view: %w", failed)
				return false
			}
			if fid, ok := held.Get(up); ok {
				for j, m := range schema.Measures {
					merged := m.Agg.Merge(mo.Measure(fid, j), src.store.Measure(r, j))
					mo.SetMeasure(fid, j, merged)
				}
				mo.AddBaseCount(fid, src.store.Base(r))
				return true
			}
			for j := range meas {
				meas[j] = src.store.Measure(r, j)
			}
			fid, err := mo.AddFactAt(up, meas, src.store.Base(r), "")
			if err != nil {
				failed = err
				return false
			}
			held.Put(up, fid)
			return true
		})
		if failed != nil {
			// Report the rows actually visited even on failure, so the
			// RowsScanned counter and per-cube traces stay truthful.
			return nil, scanned, failed
		}
	}
	return mo, scanned, nil
}
