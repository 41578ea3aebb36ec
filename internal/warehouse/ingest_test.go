package warehouse

import (
	"fmt"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/ingest"
	"dimred/internal/mdm"
	"dimred/internal/workload"
)

// TestLoadBatchEmptyPublishesNothing pins the empty-batch short
// circuit: a zero-row batch must not sync, publish a snapshot, rebuild
// materialized views, or count as a batch load.
func TestLoadBatchEmptyPublishesNothing(t *testing.T) {
	w, _ := openViewWarehouse(t)
	before := w.Metrics()
	err := w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d := w.Metrics().Sub(before)
	if d.BatchLoads != 0 || d.Syncs != 0 || d.ViewBuilds != 0 || d.SnapshotPublishes != 0 || d.FactsLoaded != 0 {
		t.Fatalf("empty batch churned: BatchLoads=%d Syncs=%d ViewBuilds=%d SnapshotPublishes=%d FactsLoaded=%d",
			d.BatchLoads, d.Syncs, d.ViewBuilds, d.SnapshotPublishes, d.FactsLoaded)
	}
	// An erroring callback still propagates without churn.
	wantErr := fmt.Errorf("boom")
	if err := w.LoadBatch(func(func([]mdm.ValueID, []float64) error) error { return wantErr }); err != wantErr {
		t.Fatalf("callback error = %v, want %v", err, wantErr)
	}
	if d := w.Metrics().Sub(before); d.BatchLoads != 0 || d.SnapshotPublishes != 0 {
		t.Fatalf("erroring batch churned: %+v", d)
	}
}

// TestLoadBatchBadRowPublishesNothing: the batch goes into the working
// side row by row, and a row that fails validation still publishes
// nothing — whether it has the wrong shape or a value past its dimension
// (even when the callback drops the error), sits above the bottom
// granularity or the callback itself gives up half way. The warehouse
// answers and counts as before, the working side is rebuilt level with
// the published one, and the next good batch goes through.
func TestLoadBatchBadRowPublishesNothing(t *testing.T) {
	w, obj := openClickWarehouse(t)
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(start + 20); err != nil {
		t.Fatal(err)
	}
	refs, meas := stressRows(t, obj, 40, start)
	month, ok := obj.Time.PeriodValue(caltime.PeriodOf(start, caltime.UnitMonth))
	if !ok {
		t.Fatal("January 2000 has no month value")
	}
	type row struct {
		refs []mdm.ValueID
		meas []float64
	}
	boom := fmt.Errorf("boom")
	for _, tc := range []struct {
		name string
		bad  row   // staged as row 5 of 10
		drop bool  // the callback ignores load's error
		fail error // the callback returns this after row 5 instead
	}{
		{name: "short refs", bad: row{refs[5][:1], meas[5]}},
		{name: "short refs, error dropped", bad: row{refs[5][:1], meas[5]}, drop: true},
		{name: "long measures", bad: row{refs[5], append(append([]float64(nil), meas[5]...), 1)}, drop: true},
		{name: "month-level value", bad: row{[]mdm.ValueID{month, refs[5][1]}, meas[5]}},
		{name: "value id past the dimension, error dropped", bad: row{[]mdm.ValueID{refs[5][0], mdm.ValueID(obj.Schema.Dims[1].NumValues())}, meas[5]}, drop: true},
		{name: "callback error", bad: row{refs[5], meas[5]}, fail: boom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := w.Metrics()
			cells := sideCells(t, w.env, w.Cubes())
			err := w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
				for i := 0; i < 10; i++ {
					r := row{refs[i], meas[i]}
					if i == 5 {
						r = tc.bad
					}
					if err := load(r.refs, r.meas); err != nil && !tc.drop {
						return err
					}
					if i == 5 && tc.fail != nil {
						return tc.fail
					}
				}
				return nil
			})
			if err == nil || tc.fail != nil && err != tc.fail {
				t.Fatalf("LoadBatch = %v, want the batch refused", err)
			}
			d := w.Metrics().Sub(before)
			if d.SnapshotPublishes != 0 || d.FactsLoaded != 0 || d.Syncs != 0 || d.SnapshotReclones != 0 ||
				d.RowsAppended != 0 || d.RowsMerged != 0 {
				t.Fatalf("refused batch churned: publishes=%d facts=%d syncs=%d reclones=%d appended=%d merged=%d",
					d.SnapshotPublishes, d.FactsLoaded, d.Syncs, d.SnapshotReclones, d.RowsAppended, d.RowsMerged)
			}
			if got := sideCells(t, w.env, w.Cubes()); got != cells {
				t.Fatalf("refused batch changed the published cells:\n%s\nwere:\n%s", got, cells)
			}
			sidesLevel(t, w, "after the refused batch")

			// A good batch straight after lands whole.
			err = w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
				for i := 10; i < 20; i++ {
					if err := load(refs[i], meas[i]); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if d := w.Metrics().Sub(before); d.FactsLoaded != 10 || d.SnapshotPublishes != 1 {
				t.Fatalf("good batch after a refused one: facts=%d publishes=%d, want 10/1", d.FactsLoaded, d.SnapshotPublishes)
			} else if d.RowsAppended+d.RowsMerged != d.FactsLoaded+d.RowsFolded { // no action deletes
				t.Fatalf("good batch after a refused one: %d rows appended and %d merged, want the %d facts and %d rows moved",
					d.RowsAppended, d.RowsMerged, d.FactsLoaded, d.RowsFolded)
			}
			sidesLevel(t, w, "after the good batch")
		})
	}
}

// TestIngestAllocationFree: Ingest checks a fact against the bottom
// granularity the warehouse resolved at Open, so a fact costs no
// allocation of its own; the delta buffer's amortized growth stays far
// below one allocation per fact.
func TestIngestAllocationFree(t *testing.T) {
	w, obj := openClickWarehouse(t)
	refs, meas, err := obj.Row(workload.Click{Day: caltime.Date(2000, 1, 1), URL: "http://www.x.com/p/1", Dwell: 1, Delivery: 1, SizeKB: 1})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := w.Ingest(refs, meas); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Ingest allocated %.1f times per fact, want 0", allocs)
	}
}

func TestIngestValidatesEagerly(t *testing.T) {
	w, obj := openClickWarehouse(t)
	if err := w.Ingest([]mdm.ValueID{1}, []float64{1, 2, 3, 4}); err == nil {
		t.Fatal("short refs accepted")
	}
	refs, meas, err := obj.Row(workload.Click{Day: caltime.Date(2000, 1, 1), URL: "http://www.x.com/p/1", Dwell: 1, Delivery: 1, SizeKB: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Ingest(refs, meas[:2]); err == nil {
		t.Fatal("short measures accepted")
	}
	// A non-bottom value (the month ancestor) must be rejected.
	monthCat, ok := obj.Time.Dimension.CategoryByName("month")
	if !ok {
		t.Fatal("no month category")
	}
	badRefs := append([]mdm.ValueID(nil), refs...)
	badRefs[0] = obj.Time.Dimension.AncestorAt(refs[0], monthCat)
	if err := w.Ingest(badRefs, meas); err == nil {
		t.Fatal("non-bottom ref accepted")
	}
	if got := w.Metrics().IngestQueued; got != 0 {
		t.Fatalf("rejected facts still queued: %d", got)
	}
	if err := w.Ingest(refs, meas); err != nil {
		t.Fatal(err)
	}
	if got, pend := w.Metrics().IngestQueued, w.IngestPending(); got != 1 || pend != 1 {
		t.Fatalf("IngestQueued=%d IngestPending=%d, want 1/1", got, pend)
	}
	if err := w.FlushIngest(); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if m.IngestCompacted != 1 || m.IngestPending != 0 || m.FactsLoaded != 1 {
		t.Fatalf("after flush: compacted=%d pending=%d loaded=%d", m.IngestCompacted, m.IngestPending, m.FactsLoaded)
	}
	res, err := w.Query(`aggregate [Time.TOP, URL.TOP]`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Measure(0, 0) != 1 {
		t.Fatalf("flushed fact not queryable: count=%v", res.Measure(0, 0))
	}
}

func TestStartIngestTwiceAndStopIdle(t *testing.T) {
	w, _ := openClickWarehouse(t)
	if err := w.StopIngest(); err != nil {
		t.Fatalf("StopIngest with no compactor: %v", err)
	}
	if err := w.StartIngest(ingest.Config{}); err != nil {
		t.Fatal(err)
	}
	if err := w.StartIngest(ingest.Config{}); err == nil {
		t.Fatal("second StartIngest accepted")
	}
	if err := w.StopIngest(); err != nil {
		t.Fatal(err)
	}
	// Stop/start cycles are fine.
	if err := w.StartIngest(ingest.Config{MinBatch: 4}); err != nil {
		t.Fatal(err)
	}
	if err := w.StopIngest(); err != nil {
		t.Fatal(err)
	}
}
