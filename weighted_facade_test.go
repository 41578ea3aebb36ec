package dimred_test

import (
	"math"
	"testing"

	"dimred"
)

// weightedWarehouse loads six months of clicks into a warehouse whose
// specification aggregates months older than two months, and keeps a
// parallel plain MO of the same facts as the reduction oracle. The
// returned query's day-level time bound cuts through an aggregated
// month, so its weighted answer is strictly between the conservative
// and liberal bounds.
func weightedWarehouse(t *testing.T) (*dimred.Warehouse, *dimred.MO, *dimred.Spec, dimred.CubeQuery) {
	t.Helper()
	paper, err := dimred.PaperMO()
	if err != nil {
		t.Fatal(err)
	}
	env, err := dimred.NewEnv(paper.Schema, "Time", paper.Time)
	if err != nil {
		t.Fatal(err)
	}
	a, err := dimred.CompileAction("m",
		`aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dimred.Open(env, a)
	if err != nil {
		t.Fatal(err)
	}
	oracle := dimred.NewMO(paper.Schema)
	urls := []string{
		"http://www.alpha.com/index",
		"http://www.beta.com/index",
		"http://www.gamma.edu/index",
	}
	for d, i := dimred.Date(2000, 1, 1), 0; d <= dimred.Date(2000, 6, 30); d, i = d+1, i+1 {
		dv := paper.Time.EnsureDay(d)
		uv := paper.URL.MustEnsureURL(urls[i%len(urls)])
		refs := []dimred.ValueID{dv, uv}
		meas := []float64{1, float64(10 + i%7), 2, 50}
		if err := w.Load(refs, meas); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.AddFact(refs, meas); err != nil {
			t.Fatal(err)
		}
	}
	q, err := dimred.ParseQuery(`aggregate [Time.year, URL.domain_grp] where Time.day <= 2000/3/15`, env)
	if err != nil {
		t.Fatal(err)
	}
	q.Sel = dimred.Weighted
	return w, oracle, w.Spec(), q
}

// moCells maps an MO to cell-string → measures.
func moCells(mo *dimred.MO) map[string][]float64 {
	out := make(map[string][]float64, mo.Len())
	for f := 0; f < mo.Len(); f++ {
		fid := dimred.FactID(f)
		out[mo.CellString(fid)] = append([]float64(nil), mo.Measures(fid)...)
	}
	return out
}

func nearlyEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func requireSameCells(t *testing.T, label string, got, want *dimred.MO) {
	t.Helper()
	g, w := moCells(got), moCells(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d cells, want %d\ngot: %v\nwant: %v", label, len(g), len(w), g, w)
	}
	for cell, wm := range w {
		gm, ok := g[cell]
		if !ok {
			t.Fatalf("%s: missing cell %s", label, cell)
		}
		for j := range wm {
			if !nearlyEqual(gm[j], wm[j]) {
				t.Fatalf("%s: cell %s measure %d = %v, want %v", label, cell, j, gm[j], wm[j])
			}
		}
	}
}

// TestWeightedFacadeProperties checks the weighted approach end to end
// through the public facade, on the compiled engine the warehouse runs
// (the interpreted evaluator's agreement is TestWeightedQueryMatchesOracle's,
// in internal/subcube):
//
//  1. per target cell and SUM measure, conservative ≤ weighted ≤ liberal;
//  2. the warehouse's weighted answer equals SelectWeighted +
//     AggregateWeighted over the materialized Definition 2 reduction;
//  3. the weighted answer is identical on the synchronized and
//     unsynchronized query paths.
func TestWeightedFacadeProperties(t *testing.T) {
	w, oracle, sp, q := weightedWarehouse(t)
	at := dimred.Date(2000, 9, 13)
	if err := w.AdvanceTo(at); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	// Oracle: weighted selection over the materialized reduction.
	red, err := dimred.Reduce(sp, oracle, at)
	if err != nil {
		t.Fatal(err)
	}
	selW, weights, err := dimred.SelectWeighted(red.MO, q.Pred, at)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dimred.AggregateWeighted(selW, weights, q.Target, q.Agg)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("compiled", func(t *testing.T) {
		// Synchronized path; the trace proves which path ran.
		weighted, tr, err := w.QueryAtTraced(q, at)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Synced {
			t.Fatal("query at the sync day did not take the synchronized path")
		}
		requireSameCells(t, "weighted vs oracle", weighted, want)

		// Unsynchronized path, same significant period: identical
		// answer (property 3).
		stale, tr2, err := w.QueryAtTraced(q, at+7)
		if err != nil {
			t.Fatal(err)
		}
		if tr2.Synced {
			t.Fatal("query a week past the sync day still took the synchronized path")
		}
		requireSameCells(t, "synced vs unsynced", stale, weighted)

		// Bounds (property 1): every schema measure is a SUM of
		// non-negative contributions here, so the ordering must hold
		// cell by cell.
		qc, ql := q, q
		qc.Sel, ql.Sel = dimred.Conservative, dimred.Liberal
		cons, err := w.QueryAt(qc, at)
		if err != nil {
			t.Fatal(err)
		}
		lib, err := w.QueryAt(ql, at)
		if err != nil {
			t.Fatal(err)
		}
		cc, wc, lc := moCells(cons), moCells(weighted), moCells(lib)
		fractional := false
		for cell, lm := range lc {
			wm, cm := wc[cell], cc[cell] // absent cell means zero
			for j, lv := range lm {
				var cv, wv float64
				if cm != nil {
					cv = cm[j]
				}
				if wm != nil {
					wv = wm[j]
				}
				if cv > wv+1e-9*math.Abs(cv) || wv > lv+1e-9*math.Abs(lv) {
					t.Fatalf("cell %s measure %d: conservative %v, weighted %v, liberal %v — ordering violated",
						cell, j, cv, wv, lv)
				}
				if !nearlyEqual(wv, lv) || !nearlyEqual(cv, wv) {
					fractional = true
				}
			}
		}
		if !fractional {
			t.Fatal("weighted equals both bounds everywhere; the setup exercises no fractional weights")
		}
	})
}
