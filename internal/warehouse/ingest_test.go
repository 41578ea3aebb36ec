package warehouse

import (
	"fmt"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/core"
	"dimred/internal/ingest"
	"dimred/internal/mdm"
	"dimred/internal/spec"
	"dimred/internal/workload"
)

// ingestSpecActions compiles the standing click actions plus a purge
// used by the ingest tests: month-level and quarter-level aggregation
// horizons plus a five-year delete, so an out-of-order stream has real
// reduced regions for its late tail to land in.
func ingestSpecActions(t *testing.T, env *spec.Env) []*spec.Action {
	t.Helper()
	return []*spec.Action{
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env),
		spec.MustCompileString("q", `aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`, env),
		spec.MustCompileString("purge", `delete where Time.year <= NOW - 5 years`, env),
	}
}

// TestDifferentialIngestVsReplayOracle is the tentpole pin: an
// out-of-order click stream ingested through the delta buffers and the
// background compactor must leave the warehouse byte-identical — cell
// for cell, measure for measure, base count for base count — to
// replaying every fact seen so far through core.Reduce on a fresh MO at
// the same clock. This is the paper's exactness claim for the Growing
// invariant extended to streaming: distributive merges make the
// incremental delta fold equal to the one-shot reduction, including
// facts that arrive after their day's region was already reduced.
func TestDifferentialIngestVsReplayOracle(t *testing.T) {
	cfg := workload.OutOfOrderConfig{
		ClickConfig: workload.ClickConfig{
			Seed: 7, Start: caltime.Date(2000, 1, 1),
			Days: 100, ClicksPerDay: 12, Domains: 5, URLsPerDomain: 3,
		},
		LateFraction: 0.3,
		MeanLateDays: 30,
		MaxLateDays:  75,
	}
	obj, stream, err := workload.BuildOutOfOrder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	actions := ingestSpecActions(t, env)
	w, err := Open(env, actions...)
	if err != nil {
		t.Fatal(err)
	}
	oracleSpec, err := spec.New(env, actions...)
	if err != nil {
		t.Fatal(err)
	}
	oracleMO := mdm.NewMO(obj.Schema)

	compare := func(step string) {
		t.Helper()
		// The warehouse must be synchronized at its clock for the
		// comparison to be meaningful; checkpoints call Sync first.
		got, err := materialize(env, w.Cubes())
		if err != nil {
			t.Fatalf("%s: materialize: %v", step, err)
		}
		want, err := core.ReduceInterpreted(oracleSpec, oracleMO, w.Now())
		if err != nil {
			t.Fatalf("%s: replay oracle: %v", step, err)
		}
		if g, o := got.DumpCells(), want.MO.DumpCells(); g != o {
			t.Fatalf("%s: delta-path warehouse diverged from core.Reduce replay\nwarehouse:\n%s\noracle:\n%s", step, g, o)
		}
	}

	if err := w.StartIngest(ingest.Config{MinBatch: 1}); err != nil {
		t.Fatal(err)
	}
	checkpoint := func(step string) {
		t.Helper()
		// Join the compactor so every ingested fact is folded, force a
		// synchronization at the current clock, and compare.
		if err := w.StopIngest(); err != nil {
			t.Fatalf("%s: StopIngest: %v", step, err)
		}
		if err := w.Sync(); err != nil {
			t.Fatalf("%s: Sync: %v", step, err)
		}
		compare(step)
		if err := w.StartIngest(ingest.Config{MinBatch: 1}); err != nil {
			t.Fatalf("%s: StartIngest: %v", step, err)
		}
	}

	lastArrival := caltime.Day(0)
	for i, r := range stream {
		if r.Arrival != lastArrival {
			if err := w.AdvanceTo(r.Arrival); err != nil {
				t.Fatal(err)
			}
			lastArrival = r.Arrival
		}
		if err := w.Ingest(r.Refs, r.Meas); err != nil {
			t.Fatal(err)
		}
		if _, err := oracleMO.AddFact(r.Refs, r.Meas); err != nil {
			t.Fatal(err)
		}
		if (i+1)%400 == 0 {
			checkpoint(fmt.Sprintf("after %d arrivals (clock %v)", i+1, w.Now()))
		}
	}
	if err := w.StopIngest(); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	compare("final stream state")

	m := w.Metrics()
	if m.IngestQueued != int64(len(stream)) || m.IngestCompacted != int64(len(stream)) {
		t.Fatalf("queued %d / compacted %d, want both %d", m.IngestQueued, m.IngestCompacted, len(stream))
	}
	if m.IngestLate == 0 {
		t.Fatal("stream produced no late compactions; the differential never exercised a reduced region")
	}
	if m.IngestPending != 0 {
		t.Fatalf("IngestPending = %d after StopIngest", m.IngestPending)
	}

	// Age everything past the purge horizon: the warehouse deletes, the
	// oracle's Reduce skips — both must agree on the (empty) remainder.
	if err := w.AdvanceTo(caltime.Date(2006, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	compare("after purge horizon")
}

// TestLoadLateSingleFactMatchesReplayOracle pins the satellite bugfix:
// a single-fact Load whose day sits inside an already-reduced region
// must land at Cell(f, t)'s granularity immediately (merged
// distributively), not linger at the bottom until the next scheduled
// sync where a day-level query could observe it at a granularity the
// Growing invariant says no longer exists.
func TestLoadLateSingleFactMatchesReplayOracle(t *testing.T) {
	obj, err := workload.NewClickSchema()
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	actions := ingestSpecActions(t, env)
	w, err := Open(env, actions...)
	if err != nil {
		t.Fatal(err)
	}
	oracleSpec, err := spec.New(env, actions...)
	if err != nil {
		t.Fatal(err)
	}
	oracleMO := mdm.NewMO(obj.Schema)

	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(start); err != nil {
		t.Fatal(err)
	}
	cfg := workload.ClickConfig{Seed: 3, Start: start, Days: 60, ClicksPerDay: 10, Domains: 4, URLsPerDomain: 3}
	var rows []workload.Click
	if err := workload.GenerateClicks(cfg, func(c workload.Click) error {
		rows = append(rows, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	err = w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
		for _, c := range rows {
			refs, meas, err := obj.Row(c)
			if err != nil {
				return err
			}
			if _, err := oracleMO.AddFact(refs, meas); err != nil {
				return err
			}
			if err := load(refs, meas); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Age the stream so the first months are reduced to month/domain.
	if err := w.AdvanceTo(caltime.Date(2000, 8, 1)); err != nil {
		t.Fatal(err)
	}

	// The late fact: a click on a day deep inside the reduced region.
	lateRefs, lateMeas, err := obj.Row(workload.Click{
		Day: start + 3, URL: "http://www.site0.com/page/0",
		Dwell: 7, Delivery: 2, SizeKB: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := w.Metrics()
	if err := w.Load(lateRefs, lateMeas); err != nil {
		t.Fatal(err)
	}
	if _, err := oracleMO.AddFact(lateRefs, lateMeas); err != nil {
		t.Fatal(err)
	}
	// The late path carries a synchronization with the commit.
	if d := w.Metrics().Sub(before); d.Syncs != 1 {
		t.Fatalf("late single-fact Load ran %d syncs, want 1 (fold-on-commit)", d.Syncs)
	}

	got, err := materialize(env, w.Cubes())
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ReduceInterpreted(oracleSpec, oracleMO, w.Now())
	if err != nil {
		t.Fatal(err)
	}
	if g, o := got.DumpCells(), want.MO.DumpCells(); g != o {
		t.Fatalf("late single-fact Load diverged from replay oracle\nwarehouse:\n%s\noracle:\n%s", g, o)
	}

	// And the observable symptom of the old bug: the whole stream is
	// older than the month horizon, so nothing — the late fact included —
	// may linger at bottom granularity waiting for the next sync.
	for f := 0; f < got.Len(); f++ {
		if g := got.Gran(mdm.FactID(f)); env.Schema.GranEq(g, env.Schema.BottomGranularity()) {
			t.Fatalf("fact %d still at bottom granularity inside the reduced region", f)
		}
	}

	// An on-time fact (today) still takes the plain commit — no sync.
	onTimeRefs, onTimeMeas, err := obj.Row(workload.Click{
		Day: w.Now(), URL: "http://www.site1.com/page/1",
		Dwell: 1, Delivery: 1, SizeKB: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	before = w.Metrics()
	if err := w.Load(onTimeRefs, onTimeMeas); err != nil {
		t.Fatal(err)
	}
	if d := w.Metrics().Sub(before); d.Syncs != 0 {
		t.Fatalf("on-time Load ran %d syncs, want 0", d.Syncs)
	}
}

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

// TestLoadBatchBadRowPublishesNothing: the batch is staged in two flat
// buffers, and a row that fails validation still publishes nothing —
// whether it has the wrong shape (refused while staging, even when the
// callback drops the error), sits above the bottom granularity (refused
// by the first side's Insert) or the callback itself gives up half way.
// The warehouse answers and counts as before, and the next good batch
// goes through.
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
			if d.SnapshotPublishes != 0 || d.FactsLoaded != 0 || d.Syncs != 0 || d.SnapshotReclones != 0 {
				t.Fatalf("refused batch churned: publishes=%d facts=%d syncs=%d reclones=%d",
					d.SnapshotPublishes, d.FactsLoaded, d.Syncs, d.SnapshotReclones)
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
			}
			sidesLevel(t, w, "after the good batch")
		})
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
