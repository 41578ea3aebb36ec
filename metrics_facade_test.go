package dimred_test

import (
	"runtime"
	"strings"
	"testing"

	"dimred"
)

// TestMetricsFacade drives the public observability surface end to end:
// load facts, advance the clock past a reduction boundary, query, and
// read Warehouse.Metrics() and QueryTraced() through the dimred facade.
func TestMetricsFacade(t *testing.T) {
	timeDim := dimred.NewTimeDim()
	urlDim := dimred.NewURLDim()
	schema, err := dimred.NewSchema("Click",
		[]*dimred.Dimension{timeDim.Dimension, urlDim.Dimension},
		[]dimred.Measure{{Name: "Clicks", Agg: dimred.AggSum}})
	if err != nil {
		t.Fatal(err)
	}
	env, err := dimred.NewEnv(schema, "Time", timeDim)
	if err != nil {
		t.Fatal(err)
	}
	toMonth, err := dimred.CompileAction("to-month",
		`aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dimred.Open(env, toMonth)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(dimred.Date(2024, 1, 1)); err != nil {
		t.Fatal(err)
	}
	err = w.LoadBatch(func(load func([]dimred.ValueID, []float64) error) error {
		for day := 2; day <= 20; day++ {
			d := timeDim.EnsureDay(dimred.Date(2024, 1, day))
			u, err := urlDim.EnsureURL("http://shop.example.com/")
			if err != nil {
				return err
			}
			if err := load([]dimred.ValueID{d, u}, []float64{1}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// One more fact, alone: a commit this small is levelled, not recloned.
	shop, err := urlDim.EnsureURL("http://shop.example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Load([]dimred.ValueID{timeDim.EnsureDay(dimred.Date(2024, 1, 21)), shop}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(dimred.Date(2024, 12, 1)); err != nil {
		t.Fatal(err)
	}

	var m dimred.Metrics = w.Metrics()
	if m.FactsLoaded != 20 || m.RowsFolded == 0 || m.Syncs == 0 {
		t.Errorf("lifecycle counters wrong: loaded=%d folded=%d syncs=%d",
			m.FactsLoaded, m.RowsFolded, m.Syncs)
	}

	// The bulk load and the fold that reduced it each moved more rows than
	// they left, so the other side was cloned from their result; the empty
	// first advance had nothing to level, the single-fact Load one row.
	if m.SnapshotReclones != 2 || m.SnapshotLevelledRows != 1 || m.SnapshotPublishes != 4 {
		t.Errorf("commit protocol counters wrong: reclones=%d levelled=%d publishes=%d, want 2/1/4",
			m.SnapshotReclones, m.SnapshotLevelledRows, m.SnapshotPublishes)
	}

	res, tr, err := w.QueryTraced(`aggregate [Time.month, URL.domain]`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("no result cells")
	}
	var trace *dimred.QueryTrace = tr
	if trace.RowsScanned() == 0 || len(trace.Cubes) == 0 {
		t.Errorf("trace empty: %+v", trace)
	}
	if !strings.Contains(trace.String(), "result cells") {
		t.Errorf("trace rendering:\n%s", trace)
	}

	m = w.Metrics()
	if m.Queries != 1 || m.QueryDuration.Count != 1 {
		t.Errorf("query metrics wrong: queries=%d latency n=%d", m.Queries, m.QueryDuration.Count)
	}
	for _, want := range []string{"facts loaded", "rows folded", "query latency", "fact bytes",
		"view hits", "view misses", "view builds", "view bytes",
		"sync rounds (delta only)", "ingest rejected", "side reclones", "rows levelled"} {
		if !strings.Contains(m.String(), want) {
			t.Errorf("Metrics rendering missing %q", want)
		}
	}

	// The rollup-view counters exist and stay zero until views are
	// enabled: base-path queries are not view traffic.
	if m.ViewHits != 0 || m.ViewMisses != 0 || m.ViewBuilds != 0 || m.ViewBytes != 0 {
		t.Errorf("view counters nonzero before EnableViews: hits=%d misses=%d builds=%d bytes=%d",
			m.ViewHits, m.ViewMisses, m.ViewBuilds, m.ViewBytes)
	}
	if err := w.EnableViews(dimred.ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	w.DisableViews()
	if got := w.Metrics().ViewBytes; got != 0 {
		t.Errorf("ViewBytes = %d after DisableViews", got)
	}
}

// TestViewHitsSayWhatTheyDid: a query at a materialized shape is served
// as stored, one above it folds the view, and both the trace and the
// counters say which — ViewHits - ViewFolds is how often the selector had
// picked the very shape asked.
func TestViewHitsSayWhatTheyDid(t *testing.T) {
	timeDim := dimred.NewTimeDim()
	urlDim := dimred.NewURLDim()
	schema, err := dimred.NewSchema("Click",
		[]*dimred.Dimension{timeDim.Dimension, urlDim.Dimension},
		[]dimred.Measure{{Name: "Clicks", Agg: dimred.AggSum}})
	if err != nil {
		t.Fatal(err)
	}
	env, err := dimred.NewEnv(schema, "Time", timeDim)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dimred.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(dimred.Date(2024, 4, 1)); err != nil {
		t.Fatal(err)
	}
	err = w.LoadBatch(func(load func([]dimred.ValueID, []float64) error) error {
		for day := 0; day < 90; day++ {
			d := timeDim.EnsureDay(dimred.Date(2024, 1, 1) + dimred.Day(day))
			for _, url := range []string{"http://shop.example.com/", "http://news.example.org/"} {
				u, err := urlDim.EnsureURL(url)
				if err != nil {
					return err
				}
				if err := load([]dimred.ValueID{d, u}, []float64{1}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const stored, above = `aggregate [Time.month, URL.domain]`, `aggregate [Time.year, URL.domain_grp]`
	if _, err := w.Query(stored); err != nil { // the shape the selector learns
		t.Fatal(err)
	}
	if err := w.EnableViews(dimred.ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	before := w.Metrics()

	_, tr, err := w.QueryTraced(stored)
	if err != nil {
		t.Fatal(err)
	}
	if tr.View == "" || !tr.ViewStored || !strings.Contains(tr.String(), "view "+tr.View+" served as stored") {
		t.Errorf("exact hit not reported as stored:\n%s", tr)
	}
	view := tr.View
	_, tr, err = w.QueryTraced(above)
	if err != nil {
		t.Fatal(err)
	}
	if tr.View != view || tr.ViewStored || !strings.Contains(tr.String(), "view "+view+" folded to the target") {
		t.Errorf("ancestor hit not reported as a fold of view %s:\n%s", view, tr)
	}
	if len(tr.Stages) != 1 || tr.Stages[0].Name != "views.Answer" {
		t.Errorf("a view hit's one stage changed its name:\n%s", tr)
	}

	d := w.Metrics().Sub(before)
	if d.ViewHits != 2 || d.ViewFolds != 1 || d.ViewMisses != 0 {
		t.Errorf("hits=%d folds=%d misses=%d, want 2/1/0", d.ViewHits, d.ViewFolds, d.ViewMisses)
	}
	if !strings.Contains(d.String(), "view hits folded") {
		t.Errorf("Metrics rendering missing the fold counter:\n%s", d)
	}
}

// TestExactHitQueryAllocations: Query at a materialized shape costs a
// borrow of the view, however many cells the view holds: one allocation
// of 48 bytes, the MO header that points at the view's column block. The
// text's plan (its parse and its shape's trace counter) is stored by the
// first call, so a repeated text allocates nothing else — four
// allocations while every call parsed, 27 while the parser built a token
// slice and the view was copied, and 144 bytes while the header held the
// four column slices itself.
func TestExactHitQueryAllocations(t *testing.T) {
	timeDim := dimred.NewTimeDim()
	urlDim := dimred.NewURLDim()
	schema, err := dimred.NewSchema("Click",
		[]*dimred.Dimension{timeDim.Dimension, urlDim.Dimension},
		[]dimred.Measure{{Name: "Clicks", Agg: dimred.AggSum}})
	if err != nil {
		t.Fatal(err)
	}
	env, err := dimred.NewEnv(schema, "Time", timeDim)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dimred.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(dimred.Date(2024, 12, 1)); err != nil {
		t.Fatal(err)
	}
	err = w.LoadBatch(func(load func([]dimred.ValueID, []float64) error) error {
		for day := 0; day < 300; day++ {
			d := timeDim.EnsureDay(dimred.Date(2024, 1, 1) + dimred.Day(day))
			for _, url := range []string{"http://shop.example.com/", "http://news.example.org/", "http://docs.example.net/"} {
				u, err := urlDim.EnsureURL(url)
				if err != nil {
					return err
				}
				if err := load([]dimred.ValueID{d, u}, []float64{1}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const src = `aggregate [Time.month, URL.domain]`
	if _, err := w.Query(src); err != nil { // the shape the selector learns
		t.Fatal(err)
	}
	if err := w.EnableViews(dimred.ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	before := w.Metrics()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := w.Query(src); err != nil {
			t.Fatal(err)
		}
	})
	// The bytes, as TotalAlloc counts them (whole size classes), on one
	// processor so that nothing else allocates meanwhile.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range 50 {
		if _, err := w.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	perHit := float64(m1.TotalAlloc-m0.TotalAlloc) / 50
	if d := w.Metrics().Sub(before); d.ViewHits != 101 || d.ViewFolds != 0 {
		t.Fatalf("hits=%d folds=%d over 101 queries, want every one an exact hit", d.ViewHits, d.ViewFolds)
	}
	t.Logf("an exact hit through Query: %.0f allocations, %.1f bytes", allocs, perHit)
	if allocs > 1 {
		t.Errorf("an exact hit through Query made %.0f allocations, want at most 1", allocs)
	}
	if perHit > 48 {
		t.Errorf("an exact hit through Query allocated %.1f bytes, want at most 48", perHit)
	}
}
