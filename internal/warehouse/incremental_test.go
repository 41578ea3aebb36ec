package warehouse

import (
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/ingest"
	"dimred/internal/mdm"
	"dimred/internal/obs"
	"dimred/internal/spec"
	"dimred/internal/workload"
)

// The delta gates stand on five months of clicks, 20 k+ live rows once
// loaded and synchronized on 29 May.
var (
	deltaGateStart = caltime.Date(2000, 1, 1)
	deltaGateToday = caltime.Date(2000, 5, 29)
)

// openDeltaGateWarehouse generates the gates' click stream and opens an
// empty warehouse on its last day; the caller bulk-loads obj.MO.
func openDeltaGateWarehouse(t *testing.T) (*Warehouse, *workload.ClickObject) {
	t.Helper()
	start, today := deltaGateStart, deltaGateToday
	obj, err := workload.BuildClickMO(workload.ClickConfig{
		Seed: 5, Start: start, Days: int(today-start) + 1,
		ClicksPerDay: 800, Domains: 200, URLsPerDomain: 10, ZipfS: 1.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every day the tests will stand on exists before the program is
	// compiled, as it would in a warehouse whose calendar is preloaded.
	for d := today; d <= caltime.Date(2000, 6, 2); d++ {
		obj.Time.EnsureDay(d)
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	// Month-unit bounds only, so the month is the significant
	// period and AdvanceTo itself synchronizes on 1 June.
	w, err := Open(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env),
		spec.MustCompileString("g", `aggregate [Time.month, URL.domain_grp] where Time.month <= NOW - 12 months`, env))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(today); err != nil {
		t.Fatal(err)
	}
	return w, obj
}

// flush64 ingests 64 facts on the warehouse's current day and returns the
// counter delta of the FlushIngest that folds them.
func flush64(t *testing.T, w *Warehouse, obj *workload.ClickObject) obs.MetricsSnapshot {
	t.Helper()
	dv, ok := obj.Time.DayValue(w.Now())
	if !ok {
		t.Fatalf("day %v not preloaded", w.Now())
	}
	urls := obj.URL.Dimension.ValuesIn(w.Env().Schema.BottomGranularity()[1])
	for i := 0; i < 64; i++ {
		if err := w.Ingest([]mdm.ValueID{dv, urls[(i*37)%len(urls)]}, []float64{1, 5, 2, 9}); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Metrics()
	if err := w.FlushIngest(); err != nil {
		t.Fatal(err)
	}
	return w.Metrics().Sub(before)
}

// TestSyncScansOnlyTheDelta is ROADMAP item 2's counter gate for the
// base cubes: on a synchronized warehouse of 20 k+ live rows a same-day
// group commit scans no more rows than it carries, a late single-fact
// Load scans exactly its own row, a later day of the same month is still
// delta-only, so is a same-day bulk load of more than a quarter of the
// bottom cube's rows, and a month-boundary advance — the router's verdicts
// change — scans every touched cube as before.
func TestSyncScansOnlyTheDelta(t *testing.T) {
	w, obj := openDeltaGateWarehouse(t)
	start, today := deltaGateStart, deltaGateToday
	loadMO(t, w, obj.MO)
	if live := w.Metrics().LiveRows; live < 20000 {
		t.Fatalf("set-up left %d live rows, the gate wants at least 20000", live)
	}
	urls := obj.URL.Dimension.ValuesIn(w.Env().Schema.BottomGranularity()[1])

	if d := flush64(t, w, obj); d.Syncs != 1 || d.SyncsIncremental != 1 || d.SyncScanned > 64 || d.IngestLate != 0 {
		t.Fatalf("same-day flush of 64 on-time facts: syncs=%d incremental=%d scanned=%d late=%d, want 1/1/<=64/0",
			d.Syncs, d.SyncsIncremental, d.SyncScanned, d.IngestLate)
	}

	// A late single-fact Load: one row inserted, one row scanned, one folded.
	lateDay, _ := obj.Time.DayValue(start + 3)
	before := w.Metrics()
	if err := w.Load([]mdm.ValueID{lateDay, urls[0]}, []float64{1, 7, 2, 4}); err != nil {
		t.Fatal(err)
	}
	if d := w.Metrics().Sub(before); d.Syncs != 1 || d.SyncsIncremental != 1 || d.SyncScanned != 1 || d.RowsFolded != 1 {
		t.Fatalf("late single-fact Load: syncs=%d incremental=%d scanned=%d folded=%d, want 1/1/1/1",
			d.Syncs, d.SyncsIncremental, d.SyncScanned, d.RowsFolded)
	}

	// A same-day bulk load of more than a quarter of the bottom cube's rows
	// scans exactly the rows it appended (April and May stay at the bottom).
	live := int64(w.Cubes().Cubes()[0].Rows())
	before = w.Metrics()
	if err := w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
		for day := caltime.Date(2000, 5, 1); day <= today; day++ {
			dv, _ := obj.Time.DayValue(day)
			for _, u := range urls {
				if err := load([]mdm.ValueID{dv, u}, []float64{1, 3, 1, 2}); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if d := w.Metrics().Sub(before); d.SyncsIncremental != 1 || d.RowsAppended < 1024 || 4*d.RowsAppended <= live || d.SyncScanned != d.RowsAppended {
		t.Fatalf("same-day bulk load beside %d bottom rows: incremental=%d appended=%d scanned=%d, want 1, over a quarter, as many",
			live, d.SyncsIncremental, d.RowsAppended, d.SyncScanned)
	}

	// The next day of the same month pins the same masks.
	if err := w.AdvanceTo(today + 1); err != nil {
		t.Fatal(err)
	}
	if d := flush64(t, w, obj); d.Syncs != 1 || d.SyncsIncremental != 1 || d.SyncScanned > 64 {
		t.Fatalf("next-day flush: syncs=%d incremental=%d scanned=%d, want 1/1/<=64", d.Syncs, d.SyncsIncremental, d.SyncScanned)
	}

	// 1 June: April leaves the bottom cube, and only a full scan finds it.
	bottom := int64(w.Cubes().Cubes()[0].Rows())
	before = w.Metrics()
	if err := w.AdvanceTo(caltime.Date(2000, 6, 1)); err != nil {
		t.Fatal(err)
	}
	d := w.Metrics().Sub(before)
	if d.Syncs != 1 || d.SyncsIncremental != 0 || d.SyncScanned < bottom || d.RowsFolded == 0 {
		t.Fatalf("month-boundary advance: syncs=%d incremental=%d scanned=%d (bottom cube %d) folded=%d, want a full scan that folds April",
			d.Syncs, d.SyncsIncremental, d.SyncScanned, bottom, d.RowsFolded)
	}
	if d := flush64(t, w, obj); d.SyncsIncremental != 1 || d.SyncScanned > 64 {
		t.Fatalf("flush after the boundary: incremental=%d scanned=%d, want 1/<=64", d.SyncsIncremental, d.SyncScanned)
	}
}

// TestIngestRejectedClosesTheLedger: a drained batch whose fold fails is
// gone from the buffer, so it must show in IngestRejected — queued =
// compacted + rejected + pending holds through a failing FlushIngest,
// through a failing background fold, and through the good batches after
// them.
func TestIngestRejectedClosesTheLedger(t *testing.T) {
	w, obj := openClickWarehouse(t)
	refs, meas, err := obj.Row(workload.Click{Day: caltime.Date(2000, 1, 1), URL: "http://www.x.com/p/1", Dwell: 1, Delivery: 1, SizeKB: 1})
	if err != nil {
		t.Fatal(err)
	}
	good := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := w.Ingest(refs, meas); err != nil {
				t.Fatal(err)
			}
		}
	}
	// poison queues a row Ingest would have refused (one ref short), as
	// if validation had a hole: the fold's Insert fails on it.
	poison := func() {
		w.met.IngestQueued.Inc()
		w.buf.Append(refs[:1], meas)
	}
	ledger := func(step string, compacted, rejected int64) {
		t.Helper()
		m := w.Metrics()
		if m.IngestCompacted != compacted || m.IngestRejected != rejected {
			t.Fatalf("%s: compacted=%d rejected=%d, want %d/%d", step, m.IngestCompacted, m.IngestRejected, compacted, rejected)
		}
		if m.IngestQueued != m.IngestCompacted+m.IngestRejected+m.IngestPending {
			t.Fatalf("%s: queued %d != compacted %d + rejected %d + pending %d",
				step, m.IngestQueued, m.IngestCompacted, m.IngestRejected, m.IngestPending)
		}
		if m.FactsLoaded != compacted {
			t.Fatalf("%s: FactsLoaded = %d, want %d", step, m.FactsLoaded, compacted)
		}
	}

	good(5)
	poison()
	if err := w.FlushIngest(); err == nil {
		t.Fatal("FlushIngest folded a malformed row")
	}
	ledger("failed flush", 0, 6)

	good(3)
	if err := w.FlushIngest(); err != nil {
		t.Fatal(err)
	}
	ledger("good flush after a failed one", 3, 6)

	if err := w.StartIngest(ingest.Config{MinBatch: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	good(2)
	poison()
	if err := w.StopIngest(); err == nil {
		t.Fatal("StopIngest hid the failed background fold")
	}
	ledger("failed background fold", 3, 9)
}
