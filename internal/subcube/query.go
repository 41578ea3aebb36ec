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

// ViewEligible reports whether the query is a shape the view selector
// learns from: no selection predicate and the paper's default
// availability aggregation (the other approaches derive their effective
// target or per-row weights from the base fact set, which a pre-rolled
// view no longer exposes). Serving admits more: views.Set.Serve also
// answers a predicate that the serving view's granularity decides
// (query.Predicate.DecidedAt), but such a read records no shape.
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
// synchronized at t, each subcube's input is first its own rows as a
// Sync at t would leave them — the deleted ones dropped, the rest rolled
// up to their current aggregation level (rollUpRows) — at any staleness.
// Either way one query.Selector per cube selects its cells, and the
// disjoint subresults are combined by one final distributive aggregation
// to the target granularity (query.Combine).
func (cs *CubeSet) Evaluate(q Query, t caltime.Day) (*mdm.MO, error) {
	return cs.EvaluateTraced(q, t, nil)
}

// EvaluateTraced runs the query like Evaluate and additionally fills tr
// (when non-nil) with which subcubes were consulted or zone-map-pruned,
// rows scanned versus kept per cube, and per-stage durations. Each
// parallel goroutine writes only its own pre-sized trace entry and
// totals slot, so tracing adds no locks to the scan path. It is the
// accounting entry: it records the query, its latency and its totals in
// the cube set's metrics.
func (cs *CubeSet) EvaluateTraced(q Query, t caltime.Day, tr *obs.Trace) (*mdm.MO, error) {
	clk := cs.met.Clock()
	start := clk.Now()
	out, tot, err := cs.evaluate(q, t, tr)
	cs.met.Queries.Inc()
	cs.met.CubesConsulted.Add(tot.consulted)
	cs.met.CubesPruned.Add(tot.pruned)
	cs.met.RowsScanned.Add(tot.scanned)
	cs.met.RowsSelected.Add(tot.kept)
	if tot.probes > 0 {
		cs.met.ProgramProbes.Add(tot.probes)
	}
	cs.met.QueryDuration.Observe(clk.Since(start))
	return out, err
}

// EvaluateUncounted runs the query like Evaluate but records none of
// EvaluateTraced's query accounting — no query, latency, cube, row or
// probe count (an unsynchronized evaluation's program-cache lookup still
// counts, as every lookup does). It is for evaluations that are not user
// queries: views.Build materializes each view through it.
func (cs *CubeSet) EvaluateUncounted(q Query, t caltime.Day) (*mdm.MO, error) {
	out, _, err := cs.evaluate(q, t, nil)
	return out, err
}

// queryTotals is what one evaluation did, summed over its cubes once the
// per-cube goroutines have joined.
type queryTotals struct {
	consulted, pruned int64
	scanned, kept     int64
	probes            int64
}

// evaluate is the shared core of EvaluateTraced and EvaluateUncounted: it
// evaluates every cube, combines the subresults, fills tr and returns the
// totals for the caller to record, or not.
func (cs *CubeSet) evaluate(q Query, t caltime.Day, tr *obs.Trace) (*mdm.MO, queryTotals, error) {
	if len(q.Target) != cs.env.Schema.NumDims() {
		return nil, queryTotals{}, fmt.Errorf("subcube: Evaluate: target granularity needs %d categories", cs.env.Schema.NumDims())
	}
	clk := cs.met.Clock()
	start := clk.Now()
	subresults, tot, err := cs.evaluateCubes(q, t, tr)
	scanDone := clk.Now()
	if tr != nil {
		tr.AddStage(obs.StageScan, scanDone.Sub(start))
	}
	if err != nil {
		return nil, tot, err
	}

	// The subresults are disjoint parts of the answer, each already at
	// the query's granularity: merging them by cell joins the cells that
	// were split across subcubes (fact_45 + fact_9 → fact_459 in Figure
	// 8) — sound because the default aggregate functions are
	// distributive.
	out, err := query.Combine(cs.env.Schema, subresults, q.Target, q.Agg)
	if tr != nil {
		now := clk.Now()
		tr.AddStage(obs.StageCombine, now.Sub(scanDone))
		tr.Total = now.Sub(start)
		if err == nil {
			tr.ResultCells = out.Len()
		}
	}
	return out, tot, err
}

// evaluateCubes is the per-subcube half of evaluate: it returns, in cube
// order, each consulted cube's selection aggregated to the query's target
// (nil for a cube the zone map pruned), synchronized or not, with the
// totals of the scans, and fills tr's per-cube entries.
func (cs *CubeSet) evaluateCubes(q Query, t caltime.Day, tr *obs.Trace) ([]*mdm.MO, queryTotals, error) {
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
	// Pruning applies only in the synchronized state: a stale row may roll
	// up into a cell whose days reach the predicate's bounds.
	var predLo, predHi caltime.Day
	pruneByTime := false
	if synced && q.Pred != nil {
		predLo, predHi, pruneByTime = q.Pred.TimeBounds(t)
	}

	// Unsynchronized queries roll each row up to its level; compile
	// the specification once and share the day-pinned router across the
	// per-cube goroutines (each carries its own probe counter).
	var baseEval cellEval
	if !synced {
		baseEval = cs.newCellEval(cs.sp, t)
	}

	var tot queryTotals
	subresults := make([]*mdm.MO, len(cs.cubes))
	errs := make([]error, len(cs.cubes))
	perCube := make([]queryTotals, len(cs.cubes))
	var wg sync.WaitGroup
	for i, c := range cs.cubes {
		if pruneByTime {
			if lo, hi, ok := c.DayRange(); ok && (hi < predLo || lo > predHi) {
				tot.pruned++
				if tr != nil {
					tr.Cubes[i].Pruned = true
				}
				continue // the cube cannot contribute
			}
		}
		tot.consulted++
		wg.Add(1)
		go func(i int, c *Cube) {
			defer wg.Done()
			cubeStart := clk.Now()
			// Definition 5's selection, bound here: a Selector, like the
			// Prepared it embeds, belongs to one goroutine.
			var sel *query.Selector
			var keep func([]mdm.ValueID) bool
			if q.Pred != nil {
				sel = q.Pred.Selector(t, q.Sel)
				keep = sel.Keep
			}
			mo := mdm.NewMO(cs.env.Schema)
			mo.SetFloors(c.gran)
			var scanned int
			var err error
			if synced {
				scanned, err = c.AppendTo(mo, keep)
			} else {
				e := &cellEval{router: baseEval.router, sp: baseEval.sp, t: baseEval.t}
				scanned, err = cs.rollUpRows(c, e, mo, keep)
				perCube[i].probes = e.probes
			}
			perCube[i].scanned, perCube[i].kept = int64(scanned), int64(mo.Len())
			if tr != nil {
				e := &tr.Cubes[i]
				e.RowsScanned = scanned
				e.RowsKept = mo.Len()
				e.Duration = clk.Since(cubeStart)
			}
			if err != nil {
				errs[i] = err
				return
			}
			if sel != nil && q.Sel == query.Weighted {
				// Definition 5/6 expected values. Each kept cell became one
				// fact of mo, so the weights line up with its facts; the
				// scaled subresult stays distributive, so the cross-cube
				// combine needs no weights.
				query.ScaleSums(mo, sel.Weights)
			}
			subresults[i], errs[i] = query.Aggregate(mo, q.Target, q.Agg)
		}(i, c)
	}
	wg.Wait()
	for _, c := range perCube {
		tot.scanned += c.scanned
		tot.kept += c.kept
		tot.probes += c.probes
	}
	for _, err := range errs {
		if err != nil {
			return nil, tot, err
		}
	}
	return subresults, tot, nil
}

// rollUpRows appends to mo cube c's live rows as a Sync at the
// evaluator's day would leave them: a row a deletion selects is dropped,
// every other row is rolled up to its current aggregation level and
// merged by cell. Sync moves each row to its level's cube in one step,
// wherever the row lies, and the default aggregates are distributive, so
// the cubes' parts together are the synchronized cube set's rows, split
// by the cube they lie in rather than the one they would move to. keep
// (nil keeps all) is asked about a rolled-up cell before the cell's first
// row is added, and a refused row is skipped: selection commutes with
// roll-up, so equal cells get equal verdicts and this is the part
// selected. scanned reports the rows visited. The per-row scratch is
// hoisted: MO.AddFactAt copies its inputs.
func (cs *CubeSet) rollUpRows(c *Cube, e *cellEval, mo *mdm.MO, keep func([]mdm.ValueID) bool) (scanned int, err error) {
	schema := cs.env.Schema
	held := mdm.NewCellMap[mdm.FactID](schema.NumDims())
	cell := make([]mdm.ValueID, schema.NumDims())
	level := make(mdm.Granularity, schema.NumDims())
	var up []mdm.ValueID
	meas := make([]float64, len(schema.Measures))
	c.store.Scan(func(r storage.RowID) bool {
		scanned++
		c.store.Refs(r, cell)
		if e.deletedBy(cell) != nil {
			return true // already past its deletion time
		}
		e.aggLevelInto(cell, level, nil)
		if up, err = schema.RollUp(up[:0], cell, level); err != nil {
			err = fmt.Errorf("subcube: stale read: %w", err)
			return false
		}
		if fid, ok := held.Get(up); ok {
			for j, m := range schema.Measures {
				mo.SetMeasure(fid, j, m.Agg.Merge(mo.Measure(fid, j), c.store.Measure(r, j)))
			}
			mo.AddBaseCount(fid, c.store.Base(r))
			return true
		}
		if keep != nil && !keep(up) {
			return true
		}
		for j := range meas {
			meas[j] = c.store.Measure(r, j)
		}
		var fid mdm.FactID
		if fid, err = mo.AddFactAt(up, meas, c.store.Base(r), ""); err != nil {
			return false
		}
		held.Put(up, fid)
		return true
	})
	return scanned, err
}
