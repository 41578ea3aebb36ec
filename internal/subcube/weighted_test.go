package subcube

import (
	"math"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/core"
	"dimred/internal/mdm"
	"dimred/internal/obs"
	"dimred/internal/query"
	"dimred/internal/spec"
	"dimred/internal/workload"
)

// weightedSetup builds a click stream whose reduced form holds
// month-granularity facts, plus a query whose day-level time bound cuts
// through one of those months — the configuration where the weighted
// approach gives answers strictly between conservative and liberal.
func weightedSetup(t *testing.T) (*workload.ClickObject, *spec.Spec, Query) {
	t.Helper()
	obj, err := workload.BuildClickMO(workload.ClickConfig{
		Seed: 19, Start: caltime.Date(2000, 1, 1),
		Days: 240, ClicksPerDay: 12, Domains: 6, URLsPerDomain: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.New(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env),
		spec.MustCompileString("q", `aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 3 quarters`, env))
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(`aggregate [Time.year, URL.domain_grp] where Time.day <= 2000/3/15`, env)
	q.Sel = query.Weighted
	return obj, s, q
}

// cells maps an MO to cell → measures for approximate comparison.
func cells(mo *mdm.MO) map[string][]float64 {
	out := make(map[string][]float64, mo.Len())
	for f := 0; f < mo.Len(); f++ {
		fid := mdm.FactID(f)
		out[mo.CellString(fid)] = append([]float64(nil), mo.Measures(fid)...)
	}
	return out
}

// approxEqualMO compares two MOs cell by cell with a relative
// tolerance: weighted answers sum the same weight-scaled terms in
// different association orders on the engine and oracle paths, so
// exact float equality is not guaranteed.
func approxEqualMO(t *testing.T, label string, got, want *mdm.MO) {
	t.Helper()
	g, w := cells(got), cells(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d result cells, want %d\ngot: %v\nwant: %v", label, len(g), len(w), g, w)
	}
	for cell, wm := range w {
		gm, ok := g[cell]
		if !ok {
			t.Fatalf("%s: missing cell %s", label, cell)
		}
		for j := range wm {
			if !approx(gm[j], wm[j]) {
				t.Fatalf("%s: cell %s measure %d = %v, want %v", label, cell, j, gm[j], wm[j])
			}
		}
	}
}

func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestWeightedQueryMatchesOracle is the headline regression test for
// the weighted approach: the engine's weighted answer must equal
// AggregateWeighted over the weighted selection of the Definition 2
// reduced MO — not the liberal answer the engine silently degraded to
// before the weights were wired through. It checks every engine
// configuration: compiled and interpreted, synchronized and
// unsynchronized.
func TestWeightedQueryMatchesOracle(t *testing.T) {
	obj, s, q := weightedSetup(t)
	at := caltime.Date(2000, 9, 13)

	red, err := core.Reduce(s, obj.MO, at)
	if err != nil {
		t.Fatal(err)
	}
	selW, weights, err := query.SelectWeighted(red.MO, q.Pred, at)
	if err != nil {
		t.Fatal(err)
	}
	want, err := query.AggregateWeighted(selW, weights, q.Target, q.Agg)
	if err != nil {
		t.Fatal(err)
	}

	// The setup must actually exercise fractional weights: the weighted
	// oracle has to differ from the liberal answer, otherwise this test
	// could not catch the weighted→liberal degradation.
	selL, err := query.Select(red.MO, q.Pred, at, query.Liberal)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := query.Aggregate(selL, q.Target, q.Agg)
	if err != nil {
		t.Fatal(err)
	}
	fractional := false
	wc, lc := cells(want), cells(lib)
	for cell, wm := range wc {
		if lm, ok := lc[cell]; ok {
			for j := range wm {
				if !approx(wm[j], lm[j]) {
					fractional = true
				}
			}
		}
	}
	if !fractional {
		t.Fatal("setup produced no fractional weights; weighted equals liberal and the test is vacuous")
	}

	for _, interpret := range []bool{false, true} {
		name := map[bool]string{false: "compiled", true: "interpreted"}[interpret]
		t.Run(name, func(t *testing.T) {
			// Synchronized: the predicate runs against cube rows directly
			// with per-row certainty weights.
			cs, err := New(s)
			if err != nil {
				t.Fatal(err)
			}
			cs.SetInterpreted(interpret)
			if err := cs.InsertMO(obj.MO); err != nil {
				t.Fatal(err)
			}
			if _, err := cs.Sync(at); err != nil {
				t.Fatal(err)
			}
			synced, err := cs.Evaluate(q, at)
			if err != nil {
				t.Fatal(err)
			}
			approxEqualMO(t, "synced", synced, want)

			// Unsynchronized (last sync in the same significant period):
			// each cube's view is rebuilt per row, selecting each cell
			// as it first appears with its certainty weight.
			cs2, err := New(s)
			if err != nil {
				t.Fatal(err)
			}
			cs2.SetInterpreted(interpret)
			if err := cs2.InsertMO(obj.MO); err != nil {
				t.Fatal(err)
			}
			if _, err := cs2.Sync(caltime.Date(2000, 9, 1)); err != nil {
				t.Fatal(err)
			}
			unsynced, err := cs2.Evaluate(q, at)
			if err != nil {
				t.Fatal(err)
			}
			approxEqualMO(t, "unsynced", unsynced, want)
		})
	}
}

// TestWeightedBetweenBounds checks the per-cell ordering the weighted
// approach promises for non-negative SUM measures: conservative ≤
// weighted ≤ liberal, on every target cell, under every engine
// configuration.
func TestWeightedBetweenBounds(t *testing.T) {
	obj, s, q := weightedSetup(t)
	at := caltime.Date(2000, 9, 13)
	for _, interpret := range []bool{false, true} {
		cs, err := New(s)
		if err != nil {
			t.Fatal(err)
		}
		cs.SetInterpreted(interpret)
		if err := cs.InsertMO(obj.MO); err != nil {
			t.Fatal(err)
		}
		if _, err := cs.Sync(at); err != nil {
			t.Fatal(err)
		}
		answers := map[query.Approach]map[string][]float64{}
		for _, ap := range []query.Approach{query.Conservative, query.Weighted, query.Liberal} {
			qa := q
			qa.Sel = ap
			mo, err := cs.Evaluate(qa, at)
			if err != nil {
				t.Fatal(err)
			}
			answers[ap] = cells(mo)
		}
		slack := 1e-9
		for cell, lm := range answers[query.Liberal] {
			wm := answers[query.Weighted][cell]
			cm := answers[query.Conservative][cell] // may be absent: zero
			for j, lv := range lm {
				var cv, wv float64
				if cm != nil {
					cv = cm[j]
				}
				if wm != nil {
					wv = wm[j]
				}
				if cv > wv+slack*math.Abs(cv) || wv > lv+slack*math.Abs(lv) {
					t.Fatalf("interpret=%v cell %s measure %d: conservative %v, weighted %v, liberal %v — ordering violated",
						interpret, cell, j, cv, wv, lv)
				}
			}
		}
		// Every weighted cell must exist liberally (weighted selects a
		// subset of the liberal facts).
		for cell := range answers[query.Weighted] {
			if _, ok := answers[query.Liberal][cell]; !ok {
				t.Fatalf("interpret=%v: weighted produced cell %s the liberal answer lacks", interpret, cell)
			}
		}
	}
}

// TestWeightedTraceCountsKept checks the trace/metric plumbing on the
// weighted path, on fresh cubes (the scan) and stale ones (the view)
// alike: a Selector's weights line up with the facts it kept, each lies
// in (0, 1], and the trace reports the same rows scanned and kept.
func TestWeightedTraceCountsKept(t *testing.T) {
	obj, s, q := weightedSetup(t)
	at := caltime.Date(2000, 9, 13)
	for _, last := range []caltime.Day{at, caltime.Date(2000, 9, 1)} {
		cs, err := New(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := cs.InsertMO(obj.MO); err != nil {
			t.Fatal(err)
		}
		if _, err := cs.Sync(last); err != nil {
			t.Fatal(err)
		}
		var tr obs.Trace
		if _, err := cs.EvaluateTraced(q, at, &tr); err != nil {
			t.Fatal(err)
		}
		if tr.Synced != (last == at) {
			t.Fatalf("synced at %v, queried at %v: trace says synced=%v", last, at, tr.Synced)
		}
		eval := cs.newCellEval(cs.sp, at)
		for i, c := range cs.Cubes() {
			sel := q.Pred.Selector(at, q.Sel)
			mo := mdm.NewMO(cs.env.Schema)
			var scanned int
			if tr.Synced {
				scanned, err = c.AppendTo(mo, sel.Keep)
			} else {
				scanned, err = cs.viewOf(c, &eval, mo, sel.Keep)
			}
			if err != nil {
				t.Fatal(err)
			}
			weights := sel.Weights
			if len(weights) != mo.Len() {
				t.Fatalf("cube %d: %d weights for %d kept rows", c.ID(), len(weights), mo.Len())
			}
			if ct := tr.Cubes[i]; !ct.Pruned && (ct.RowsScanned != scanned || ct.RowsKept != mo.Len()) {
				t.Fatalf("cube %d: trace scanned/kept %d/%d, selection %d/%d", c.ID(), ct.RowsScanned, ct.RowsKept, scanned, mo.Len())
			}
			for i, w := range weights {
				if w <= 0 || w > 1 {
					t.Fatalf("cube %d: weight[%d] = %v outside (0, 1]", c.ID(), i, w)
				}
			}
		}
	}
}
