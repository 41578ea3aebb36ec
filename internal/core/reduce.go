// Package core implements the paper's primary contribution: the
// semantics of reducing a multidimensional object under a data reduction
// specification (Section 4.2 auxiliary functions and the Definition 2
// reduction semantics), including per-fact provenance so that, as the
// paper requires, "for any fact in a reduced MO it is possible to
// determine the specific action that caused the fact to be aggregated to
// its current level".
//
// Reduce is purely functional: it never mutates its input MO. The
// subcube engine (package subcube) is the incremental, operational
// counterpart; integration tests verify the two agree.
package core

import (
	"fmt"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/spec"
	"dimred/internal/specexec"
)

// SpecGran returns Spec_gran(f, t) (Eq. 11): the set of granularities
// specified as aggregation levels for fact f at time t — the targets of
// every action whose predicate f's direct cell satisfies, plus f's own
// granularity (so the set is never empty).
func SpecGran(s *spec.Spec, mo *mdm.MO, f mdm.FactID, t caltime.Day) []mdm.Granularity {
	cell := mo.Refs(f)
	out := []mdm.Granularity{mo.Gran(f)}
	for _, a := range s.Actions() {
		if a.IsDelete() {
			continue // deletion is handled separately (Spec.DeletedBy)
		}
		if a.SatisfiedBy(cell, t) {
			out = append(out, a.Target())
		}
	}
	return out
}

// Cell returns Cell(f, t) (Eq. 12): the cell of dimension values fact f
// aggregates to at time t — f's values rolled up to the maximum
// granularity in Spec_gran(f, t) — together with that granularity and,
// per dimension, the action responsible for the level (nil where f's own
// granularity prevails). It fails if the specified granularities have no
// maximum, which a NonCrossing specification never produces.
func Cell(s *spec.Spec, mo *mdm.MO, f mdm.FactID, t caltime.Day) ([]mdm.ValueID, mdm.Granularity, []*spec.Action, error) {
	schema := s.Env().Schema
	grans := SpecGran(s, mo, f, t)
	max, err := schema.MaxGranularity(grans)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: Cell(%s): %w", mo.Name(f), err)
	}
	cell := mo.Refs(f)
	out, err := schema.RollUp(nil, cell, max)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: Cell(%s): %w", mo.Name(f), err)
	}
	// Per-dimension responsibility from AggLevel; its levels coincide
	// with max for a NonCrossing specification.
	_, resp := s.AggLevel(cell, t)
	return out, max, resp, nil
}

// Provenance records how one reduced fact came to be.
type Provenance struct {
	Sources     []mdm.FactID   // facts of the input MO aggregated into it
	Responsible []*spec.Action // per dimension; nil where no action raised the level
}

// Result is the outcome of a reduction: the reduced MO (Definition 2)
// plus provenance per reduced fact. Deleted records facts of the input
// MO removed by deletion actions (the Section 8 extension), keyed by the
// responsible action's name.
type Result struct {
	MO      *mdm.MO
	Prov    map[mdm.FactID]Provenance
	Deleted map[string][]mdm.FactID
}

// Reduce computes the reduced multidimensional object O'(t) of
// Definition 2: facts are grouped by the cell they aggregate to at time
// t, each group becomes one fact mapped directly to that cell, and each
// measure is folded with its default aggregate function over the group.
// The schema and dimensions are unchanged, so new facts conforming to
// the original schema may still be inserted afterwards.
//
// The specification is compiled to a specexec program first, so the
// per-fact work is a bitset probe pass instead of the double predicate
// interpretation of SpecGran followed by AggLevel; ReduceInterpreted
// keeps the uncompiled evaluation — the literal Definition 2 — for
// differential testing and benchmark baselines. For a NonCrossing
// specification, which spec.New and Spec.Insert enforce, both produce
// identical results. Repeated calls with an unmutated specification
// reuse the program its action set owns (specexec.RouterAt) —
// memoization of a pure compile, so Reduce stays referentially
// transparent; it has no metric set and records nothing.
func Reduce(s *spec.Spec, mo *mdm.MO, t caltime.Day) (*Result, error) {
	return reduceWith(s, mo, t, specexec.RouterAt(s, t, nil))
}

// ReduceInterpreted is Reduce on the uncompiled evaluation path: every
// action predicate is re-interpreted per fact (SpecGran, then AggLevel
// over the same actions).
func ReduceInterpreted(s *spec.Spec, mo *mdm.MO, t caltime.Day) (*Result, error) {
	return reduceWith(s, mo, t, nil)
}

func reduceWith(s *spec.Spec, mo *mdm.MO, t caltime.Day, router *specexec.Router) (*Result, error) {
	schema := s.Env().Schema
	type group struct {
		cell    []mdm.ValueID
		sources []mdm.FactID
		meas    []float64
		base    int64
		resp    []*spec.Action
	}
	groups := make(map[string]*group)
	order := make([]string, 0)
	deleted := make(map[string][]mdm.FactID)

	n := schema.NumDims()
	var keyBuf []byte
	var cellScratch []mdm.ValueID
	levelScratch := make(mdm.Granularity, n)
	respScratch := make([]*spec.Action, n)
	for f := 0; f < mo.Len(); f++ {
		fid := mdm.FactID(f)
		refs := mo.Refs(fid)
		var del *spec.Action
		if router != nil {
			del = router.DeletedBy(refs)
		} else {
			del = s.DeletedBy(refs, t)
		}
		if del != nil {
			deleted[del.Name()] = append(deleted[del.Name()], fid)
			continue
		}
		var cell []mdm.ValueID
		var resp []*spec.Action
		if router != nil {
			// Cell(f, t) the way subcube's Sync computes it: one probe pass
			// yields the aggregation level and its responsible actions, and
			// for a NonCrossing specification that level is Spec_gran's
			// maximum.
			router.AggLevelInto(refs, levelScratch, respScratch)
			var err error
			if cellScratch, err = schema.RollUp(cellScratch[:0], refs, levelScratch); err != nil {
				return nil, fmt.Errorf("core: Cell(%s): %w", mo.Name(fid), err)
			}
			cell, resp = cellScratch, respScratch
		} else {
			var err error
			cell, _, resp, err = Cell(s, mo, fid, t)
			if err != nil {
				return nil, err
			}
		}
		keyBuf = mdm.AppendCellKey(keyBuf[:0], cell)
		g, ok := groups[string(keyBuf)]
		if !ok {
			key := string(keyBuf)
			g = &group{
				cell: append([]mdm.ValueID(nil), cell...),
				meas: make([]float64, len(schema.Measures)),
				resp: append([]*spec.Action(nil), resp...),
			}
			for j := range schema.Measures {
				g.meas[j] = schema.Measures[j].Agg.Init(mo.Measure(fid, j))
				if schema.Measures[j].Agg == mdm.AggCount {
					g.meas[j] = float64(mo.BaseCount(fid))
				}
			}
			g.base = mo.BaseCount(fid)
			g.sources = append(g.sources, fid)
			groups[key] = g
			order = append(order, key)
			continue
		}
		for j := range schema.Measures {
			agg := schema.Measures[j].Agg
			x := agg.Init(mo.Measure(fid, j))
			if agg == mdm.AggCount {
				x = float64(mo.BaseCount(fid))
			}
			g.meas[j] = agg.Merge(g.meas[j], x)
		}
		g.base += mo.BaseCount(fid)
		g.sources = append(g.sources, fid)
		// Keep the responsibility that raised levels highest: per
		// dimension, prefer the action with the higher target category,
		// breaking ties deterministically by action name.
		for i := range resp {
			g.resp[i] = higherResp(schema, i, g.resp[i], resp[i])
		}
	}

	out := mdm.NewMO(schema)
	res := &Result{MO: out, Prov: make(map[mdm.FactID]Provenance, len(order)), Deleted: deleted}
	for _, key := range order {
		g := groups[key]
		names := make([]string, len(g.sources))
		for i, f := range g.sources {
			names[i] = mo.Name(f)
		}
		name := mdm.MergedName(names)
		nf, err := out.AddFactAt(g.cell, g.meas, g.base, name)
		if err != nil {
			return nil, fmt.Errorf("core: Reduce: %w", err)
		}
		res.Prov[nf] = Provenance{Sources: g.sources, Responsible: g.resp}
	}
	return res, nil
}

// higherResp merges two candidate responsible actions for dimension i:
// the one aggregating the dimension to the higher target category wins;
// equal (or incomparable) targets tie-break by action name so the
// merged provenance does not depend on fact order.
func higherResp(schema *mdm.Schema, i int, cur, cand *spec.Action) *spec.Action {
	if cand == nil {
		return cur
	}
	if cur == nil {
		return cand
	}
	cc, nc := cur.TargetIn(i), cand.TargetIn(i)
	d := schema.Dims[i]
	switch {
	case cc == nc || !d.CatComparable(cc, nc):
		if cand.Name() < cur.Name() {
			return cand
		}
		return cur
	case d.CatLE(cc, nc):
		return cand
	default:
		return cur
	}
}
