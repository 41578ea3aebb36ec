package warehouse

import (
	"fmt"
	"sync"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/spec"
	"dimred/internal/subcube"
	"dimred/internal/views"
	"dimred/internal/workload"
)

// stressRows pre-resolves n bottom rows with integer measures. Integer
// measures make grand totals exact under float64 summation in any
// association order, so the stress invariants can compare with ==.
// Dimension builders are not concurrent-safe; all resolution happens
// here, before any goroutines start.
func stressRows(t testing.TB, obj *workload.ClickObject, n int, start caltime.Day) ([][]mdm.ValueID, [][]float64) {
	t.Helper()
	refs := make([][]mdm.ValueID, 0, n)
	meas := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		r, m, err := obj.Row(workload.Click{
			Day:      start + caltime.Day(i%120),
			URL:      fmt.Sprintf("http://www.site%d.com/page/%d", i%7, i%3),
			Dwell:    2,
			Delivery: 3,
			SizeKB:   5,
		})
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
		meas = append(meas, m)
	}
	return refs, meas
}

// grandTotals sums every cell of a query result per measure.
func grandTotals(mo *mdm.MO) [4]float64 {
	var tot [4]float64
	for f := 0; f < mo.Len(); f++ {
		m := mo.Measures(mdm.FactID(f))
		for j := range tot {
			tot[j] += m[j]
		}
	}
	return tot
}

// stressSpec returns the two standing actions plus the churn action the
// writer repeatedly inserts and deletes. The churn action is year-level
// with a cutoff no test row ever reaches, so its cube stays empty and
// Definition 4 always permits the delete — but each insert/delete still
// rebuilds the cube layout and bumps the spec generation under load.
func stressSpec(t *testing.T, env *spec.Env) (m, q, churn *spec.Action) {
	t.Helper()
	m = spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env)
	q = spec.MustCompileString("q", `aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`, env)
	churn = spec.MustCompileString("y", `aggregate [Time.year, URL.domain_grp] where Time.year <= NOW - 2 years`, env)
	return m, q, churn
}

// TestStressSnapshotAtomicity races readers against a writer that
// interleaves batch loads, clock advances and spec mutations, and
// asserts from the reader side that every query observed one atomic
// snapshot end-to-end:
//
//   - batch atomicity: LoadBatch commits load+sync as one publication,
//     so any observed grand total is the initial total plus an integer
//     number of whole batches — a torn read (partial batch, or a query
//     spanning two spec generations that double- or under-counts rows
//     mid-ApplySpec) breaks the divisibility;
//   - monotonicity: snapshots publish in sequence order, so one
//     reader's successive totals never decrease;
//   - conservation: folding and spec churn only regroup rows, so the
//     per-measure totals stay in lockstep with the count total.
//
// Run with -race this also validates the pin/publish/drain protocol's
// happens-before edges.
func TestStressSnapshotAtomicity(t *testing.T) {
	obj, env := clickEnv(t)
	mAct, qAct, churn := stressSpec(t, env)
	w, err := Open(env, mAct, qAct)
	if err != nil {
		t.Fatal(err)
	}
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(caltime.Date(2000, 6, 1)); err != nil {
		t.Fatal(err)
	}

	const (
		initRows   = 200
		batches    = 24
		batchRows  = 25
		readerGoro = 4
	)
	refs, meas := stressRows(t, obj, initRows+batches*batchRows, start)
	load := func(lo, hi int) error {
		return w.LoadBatch(func(ld func([]mdm.ValueID, []float64) error) error {
			for i := lo; i < hi; i++ {
				if err := ld(refs[i], meas[i]); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := load(0, initRows); err != nil {
		t.Fatal(err)
	}

	q := subcube.MustParseQuery(`aggregate [Time.quarter, URL.domain_grp]`, env)
	at := caltime.Date(2000, 6, 1)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readerGoro; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastCount := float64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := w.QueryAt(q, at)
				if err != nil {
					t.Error(err)
					return
				}
				tot := grandTotals(res)
				count := tot[0]
				// Batch atomicity: totals advance in whole batches.
				k := (count - initRows) / batchRows
				if k != float64(int(k)) || k < 0 || k > batches {
					t.Errorf("count %v is not initial %d plus whole batches of %d", count, initRows, batchRows)
					return
				}
				// Monotonicity: snapshots publish in order.
				if count < lastCount {
					t.Errorf("count went backwards: %v after %v", count, lastCount)
					return
				}
				lastCount = count
				// Conservation: regrouping preserves each measure.
				if tot[1] != 2*count || tot[2] != 3*count || tot[3] != 5*count {
					t.Errorf("measure totals %v out of lockstep with count %v", tot, count)
					return
				}
			}
		}()
	}

	for b := 0; b < batches; b++ {
		lo := initRows + b*batchRows
		if err := load(lo, lo+batchRows); err != nil {
			t.Fatal(err)
		}
		switch b % 4 {
		case 1:
			if err := w.InsertActions(churn); err != nil {
				t.Fatal(err)
			}
		case 3:
			if err := w.DeleteActions("y"); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := w.AdvanceTo(w.Now() + 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	// The final state must account for every loaded row.
	res, err := w.QueryAt(q, at)
	if err != nil {
		t.Fatal(err)
	}
	if tot := grandTotals(res); tot[0] != initRows+batches*batchRows {
		t.Errorf("final count = %v, want %d", tot[0], initRows+batches*batchRows)
	}
}

// TestStressViewsNeverServeStale races readers against a writer that
// interleaves batch loads, clock advances, spec churn and view
// enable/refresh/disable, with the rollup-view lattice live. Readers
// re-check the snapshot atomicity invariants on view-servable shapes:
// totals advance in whole batches and never go backwards. They ask in
// three ways: a prepared query at the published clock, a query text
// through its plan, and a text strictly above the one materialized view,
// which a hit folds. A view serving a stale generation or build clock
// would answer with a pre-batch total after a newer one was observed,
// breaking monotonicity. A view answer pins nothing, so under -race this
// also checks that it needs only the publish edge: everything it reads
// was written before the snapshot was stored, and nothing after.
func TestStressViewsNeverServeStale(t *testing.T) {
	obj, env := clickEnv(t)
	mAct, qAct, churn := stressSpec(t, env)
	w, err := Open(env, mAct, qAct)
	if err != nil {
		t.Fatal(err)
	}
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(caltime.Date(2000, 6, 1)); err != nil {
		t.Fatal(err)
	}

	const (
		initRows  = 200
		batches   = 24
		batchRows = 25
		// Readers per way of asking.
		readerGoro = 2
	)
	refs, meas := stressRows(t, obj, initRows+batches*batchRows, start)
	load := func(lo, hi int) error {
		return w.LoadBatch(func(ld func([]mdm.ValueID, []float64) error) error {
			for i := lo; i < hi; i++ {
				if err := ld(refs[i], meas[i]); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := load(0, initRows); err != nil {
		t.Fatal(err)
	}

	const (
		text = `aggregate [Time.quarter, URL.domain_grp]`
		// Strictly above text's shape: served by folding its view.
		above = `aggregate [Time.year, URL.TOP]`
	)
	q := subcube.MustParseQuery(text, env)
	// Seed the shape trace so every refresh has a view to build. The
	// seed outweighs anything the readers record, so that with one view
	// allowed, every refresh materializes q's shape and above's hits fold.
	if _, err := w.QueryAt(q, w.Now()); err != nil {
		t.Fatal(err)
	}
	w.shapes.Add(spec.EncodeGran(q.Target), 1<<40)
	vcfg := views.Config{MaxViews: 1}
	if err := w.EnableViews(vcfg); err != nil {
		t.Fatal(err)
	}

	asks := []func() (*mdm.MO, error){
		func() (*mdm.MO, error) { return w.QueryAt(q, w.Now()) },
		func() (*mdm.MO, error) { return w.Query(text) },
		func() (*mdm.MO, error) { return w.Query(above) },
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readerGoro*len(asks); r++ {
		ask := asks[r%len(asks)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastCount := float64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := ask()
				if err != nil {
					t.Error(err)
					return
				}
				tot := grandTotals(res)
				count := tot[0]
				k := (count - initRows) / batchRows
				if k != float64(int(k)) || k < 0 || k > batches {
					t.Errorf("count %v is not initial %d plus whole batches of %d", count, initRows, batchRows)
					return
				}
				if count < lastCount {
					t.Errorf("count went backwards: %v after %v — a stale view was served", count, lastCount)
					return
				}
				lastCount = count
				if tot[1] != 2*count || tot[2] != 3*count || tot[3] != 5*count {
					t.Errorf("measure totals %v out of lockstep with count %v", tot, count)
					return
				}
			}
		}()
	}

	for b := 0; b < batches; b++ {
		lo := initRows + b*batchRows
		if err := load(lo, lo+batchRows); err != nil {
			t.Fatal(err)
		}
		switch b % 6 {
		case 1:
			if err := w.InsertActions(churn); err != nil {
				t.Fatal(err)
			}
		case 3:
			if err := w.DeleteActions("y"); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := w.AdvanceTo(w.Now() + 1); err != nil {
				t.Fatal(err)
			}
		case 4:
			if err := w.RefreshViews(); err != nil {
				t.Fatal(err)
			}
		case 5:
			w.DisableViews()
			if err := w.EnableViews(vcfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	res, err := w.QueryAt(q, w.Now())
	if err != nil {
		t.Fatal(err)
	}
	if tot := grandTotals(res); tot[0] != initRows+batches*batchRows {
		t.Errorf("final count = %v, want %d", tot[0], initRows+batches*batchRows)
	}
	m := w.Metrics()
	if m.ViewBuilds == 0 {
		t.Error("storm never built a view")
	}
	if m.ViewFolds == 0 || m.ViewHits == m.ViewFolds {
		t.Errorf("storm served hits=%d folds=%d, want both exact hits and folds", m.ViewHits, m.ViewFolds)
	}
}
