package warehouse

import (
	"strings"
	"sync"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/spec"
	"dimred/internal/storage"
	"dimred/internal/workload"
)

// TestMetricsEndToEnd drives a full warehouse lifecycle — load, advance
// the clock past a reduction boundary, query, change the specification —
// and asserts the observability layer saw every stage: non-zero fold,
// scan, skip, rebuild and latency counters, coherent gauges.
func TestMetricsEndToEnd(t *testing.T) {
	w, obj := openClickWarehouse(t)
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(start); err != nil {
		t.Fatal(err)
	}
	cfg := workload.ClickConfig{Seed: 7, Start: start, Days: 90, ClicksPerDay: 25, Domains: 5, URLsPerDomain: 3}
	loadStream(t, w, obj, cfg)

	m := w.Metrics()
	if m.FactsLoaded != 90*25 {
		t.Errorf("FactsLoaded = %d, want %d", m.FactsLoaded, 90*25)
	}
	if m.BatchLoads != 1 {
		t.Errorf("BatchLoads = %d, want 1", m.BatchLoads)
	}
	if m.RowsAppended == 0 {
		t.Error("RowsAppended = 0 after loading")
	}
	if m.Syncs == 0 {
		t.Error("Syncs = 0 after a bulk load")
	}
	if m.LiveRows == 0 || m.LiveBytes == 0 || m.DimBytes == 0 || m.CubeCount < 2 {
		t.Errorf("storage gauges not populated: %+v", m)
	}
	if m.Advances != 1 || m.SnapshotPublishes == 0 {
		t.Errorf("Advances = %d, SnapshotPublishes = %d after one advance and a load; want 1 and > 0", m.Advances, m.SnapshotPublishes)
	}

	// Cross the to-month reduction boundary: the sync must fold rows.
	if err := w.AdvanceTo(caltime.Date(2001, 1, 15)); err != nil {
		t.Fatal(err)
	}
	m2 := w.Metrics()
	if m2.RowsFolded == 0 {
		t.Error("RowsFolded = 0 after advancing past the reduction boundary")
	}
	if m2.SyncScanned == 0 {
		t.Error("SyncScanned = 0 after a migrating sync")
	}
	if m2.Syncs <= m.Syncs {
		t.Errorf("Syncs did not advance: %d -> %d", m.Syncs, m2.Syncs)
	}
	if m2.SyncDuration.Count != m2.Syncs {
		t.Errorf("SyncDuration.Count = %d, want %d", m2.SyncDuration.Count, m2.Syncs)
	}
	if m2.LiveRows >= m.LiveRows {
		t.Errorf("LiveRows gauge did not shrink: %d -> %d", m.LiveRows, m2.LiveRows)
	}
	// The advance's sync finds cubes whose zone map holds no row that can
	// move, and skips them.
	if m2.SyncSkips == 0 {
		t.Error("SyncSkips = 0 after a sync over cubes the advance cannot touch")
	}
	if m2.Advances != 2 || m2.SnapshotPublishes <= m.SnapshotPublishes {
		t.Errorf("Advances = %d, SnapshotPublishes %d -> %d after a second advance; want 2 and a new publish",
			m2.Advances, m.SnapshotPublishes, m2.SnapshotPublishes)
	}

	// Query: scan counters and the latency histogram must move.
	res, err := w.Query(`aggregate [Time.month, URL.domain]`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("query returned no cells")
	}
	m3 := w.Metrics()
	if m3.Queries != 1 {
		t.Errorf("Queries = %d, want 1", m3.Queries)
	}
	if m3.CubesConsulted == 0 {
		t.Error("CubesConsulted = 0 after a query")
	}
	if m3.RowsScanned == 0 || m3.RowsSelected == 0 {
		t.Errorf("query scan counters empty: scanned=%d selected=%d", m3.RowsScanned, m3.RowsSelected)
	}
	if m3.QueryDuration.Count != 1 {
		t.Errorf("QueryDuration.Count = %d, want 1", m3.QueryDuration.Count)
	}

	// The delta helper meters just the query window.
	d := m3.Sub(m2)
	if d.Queries != 1 || d.FactsLoaded != 0 {
		t.Errorf("delta wrong: Queries=%d FactsLoaded=%d", d.Queries, d.FactsLoaded)
	}
	if !strings.Contains(m3.String(), "rows folded") {
		t.Errorf("Metrics.String missing rows folded:\n%s", m3)
	}

	// A specification change rebuilds the layout once.
	churn := spec.MustCompileString("churn",
		`aggregate [Time.month, URL.domain] where URL.domain = "unused.com" and Time.month <= NOW - 2 months`, w.Env())
	if err := w.InsertActions(churn); err != nil {
		t.Fatal(err)
	}
	if m4 := w.Metrics(); m4.SpecRebuilds != m3.SpecRebuilds+1 || m4.SnapshotPublishes <= m3.SnapshotPublishes {
		t.Errorf("SpecRebuilds %d -> %d, SnapshotPublishes %d -> %d after InsertActions; want one rebuild and a new publish",
			m3.SpecRebuilds, m4.SpecRebuilds, m3.SnapshotPublishes, m4.SnapshotPublishes)
	}
}

// TestQueryTraced checks the per-query trace: every subcube appears,
// scanned/kept totals match the engine counters, and time-selective
// queries report zone-map pruning.
func TestQueryTraced(t *testing.T) {
	w, obj := openClickWarehouse(t)
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(start); err != nil {
		t.Fatal(err)
	}
	cfg := workload.ClickConfig{Seed: 3, Start: start, Days: 120, ClicksPerDay: 20, Domains: 4, URLsPerDomain: 3}
	loadStream(t, w, obj, cfg)
	if err := w.AdvanceTo(caltime.Date(2001, 6, 1)); err != nil {
		t.Fatal(err)
	}

	before := w.Metrics()
	res, tr, err := w.QueryTraced(`aggregate [Time.month, URL.domain]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Cubes) != int(w.Metrics().CubeCount) {
		t.Errorf("trace covers %d cubes, layout has %d", len(tr.Cubes), w.Metrics().CubeCount)
	}
	if !tr.Synced {
		t.Error("trace should report the synchronized state after AdvanceTo")
	}
	if tr.RowsScanned() == 0 {
		t.Error("trace rows scanned = 0")
	}
	if tr.ResultCells != res.Len() {
		t.Errorf("trace result cells %d != result %d", tr.ResultCells, res.Len())
	}
	delta := w.Metrics().Sub(before)
	if int(delta.RowsScanned) != tr.RowsScanned() || int(delta.RowsSelected) != tr.RowsKept() {
		t.Errorf("trace totals diverge from counters: trace (%d, %d), counters (%d, %d)",
			tr.RowsScanned(), tr.RowsKept(), delta.RowsScanned, delta.RowsSelected)
	}
	// The stage names are spelled out here, not taken from the obs
	// constants, because consumers match them as text: the repo
	// benchmark's tracer (bench/trace.go, a module of its own that a perf
	// change may not edit) finds the combine span by the literal below. A
	// rename would not break its build — it would silently read
	// query.combine_us as zero, and a metric that is always zero is a bug
	// by the ROADMAP's north star.
	if len(tr.Stages) != 2 || tr.Stages[0].Name != "parallel subcube scan" || tr.Stages[1].Name != "combine + final aggregate" {
		t.Errorf(`expected the stages "parallel subcube scan" and "combine + final aggregate", got %v`, tr.Stages)
	}
	out := tr.String()
	for _, want := range []string{"query:", "(synchronized)", "result cells"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace rendering missing %q:\n%s", want, out)
		}
	}

	// A query over only the recent past must prune the coarse cubes
	// whose day hull lies outside the predicate's bounds.
	_, tr2, err := w.QueryTraced(`aggregate [Time.day, URL.url] where 2001/4 < Time.month`)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.CubesPruned() == 0 {
		t.Errorf("time-selective query pruned no cubes:\n%s", tr2)
	}
}

// TestMetricsConcurrentQueries runs parallel traced and untraced
// queries against concurrent Metrics() snapshots — the pattern the race
// CI job guards.
func TestMetricsConcurrentQueries(t *testing.T) {
	w, obj := openClickWarehouse(t)
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(start); err != nil {
		t.Fatal(err)
	}
	cfg := workload.ClickConfig{Seed: 9, Start: start, Days: 60, ClicksPerDay: 15, Domains: 4, URLsPerDomain: 2}
	loadStream(t, w, obj, cfg)

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if i%2 == 0 {
					_, _, err := w.QueryTraced(`aggregate [Time.month, URL.domain]`)
					if err != nil {
						errs[i] = err
						return
					}
				} else if _, err := w.Query(`aggregate [Time.month, URL.domain]`); err != nil {
					errs[i] = err
					return
				}
				_ = w.Metrics()
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Metrics().Queries; got != workers*10 {
		t.Errorf("Queries = %d, want %d", got, workers*10)
	}
}

// TestMetricsStorageIsOneSnapshot: two goroutines call Metrics beside a
// LoadBatch writer that grows the warehouse on every commit, and every
// result's storage fields describe one snapshot: LiveBytes is LiveRows
// rows of the layout. Metrics fills them from the snapshot it pinned, so
// two callers pinned to different snapshots cannot mix theirs.
func TestMetricsStorageIsOneSnapshot(t *testing.T) {
	w, obj := openClickWarehouse(t)
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(start); err != nil {
		t.Fatal(err)
	}
	const batches, perBatch = 40, 30
	refs, meas := stressRows(t, obj, batches*perBatch, start)
	rowBytes := storage.Layout{DimCols: w.env.Schema.NumDims(), MeasCols: len(w.env.Schema.Measures)}.RowBytes()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				m := w.Metrics()
				if m.LiveBytes != m.LiveRows*rowBytes || m.CubeCount < 1 || m.DeadRows < 0 {
					t.Errorf("torn storage fields: %d live rows, %d fact bytes, %d cubes, %d dead",
						m.LiveRows, m.LiveBytes, m.CubeCount, m.DeadRows)
					return
				}
			}
		}()
	}
	for b := 0; b < batches; b++ {
		err := w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
			for i := b * perBatch; i < (b+1)*perBatch; i++ {
				if err := load(refs[i], meas[i]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if m := w.Metrics(); m.LiveRows == 0 || m.LiveBytes != m.LiveRows*rowBytes {
		t.Errorf("after the writer: %d live rows, %d fact bytes", m.LiveRows, m.LiveBytes)
	}
}
