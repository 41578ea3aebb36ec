package dimred_test

import (
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
