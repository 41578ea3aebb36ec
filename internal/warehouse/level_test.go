package warehouse

import (
	"runtime"
	"sync"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/obs"
	"dimred/internal/spec"
	"dimred/internal/subcube"
)

// TestLevelCopiesOnlyTheDelta pins the level arm of the commit protocol:
// a small commit is applied once and the retired side is brought level by
// copying the rows that commit wrote — not the warehouse, not by running
// the commit again — and a reader still on the retired side holds the
// copy off until it is done.
func TestLevelCopiesOnlyTheDelta(t *testing.T) {
	t.Run("64-fact flush", levelCopiesTheDelta)
	t.Run("pinned reader", levelWaitsForPinnedReader)
}

// routerPins is how many routers the delta's lookups pinned: every lookup
// finds or compiles the program, and all but the pinning ones reuse a
// pinned router.
func routerPins(d obs.MetricsSnapshot) int64 {
	return d.ProgramCacheHits + d.ProgramCacheMisses - d.RouterCacheHits
}

func levelCopiesTheDelta(t *testing.T) {
	w, obj := openDeltaGateWarehouse(t)
	loadMO(t, w, obj.MO)
	if live := w.Metrics().LiveRows; live < 20000 {
		t.Fatalf("set-up left %d live rows, the test wants at least 20000", live)
	}
	urls := obj.URL.Dimension.ValuesIn(w.Env().Schema.BottomGranularity()[1])

	// 63 facts of today and one of 4 January, long since a month row.
	today, _ := obj.Time.DayValue(w.Now())
	lateDay, _ := obj.Time.DayValue(deltaGateStart + 3)
	for i := 0; i < 64; i++ {
		day := today
		if i == 40 {
			day = lateDay
		}
		if err := w.Ingest([]mdm.ValueID{day, urls[(i*37)%len(urls)]}, []float64{1, 5, 2, 9}); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Metrics()
	if err := w.FlushIngest(); err != nil {
		t.Fatal(err)
	}
	d := w.Metrics().Sub(before)
	if d.IngestCompacted != 64 || d.IngestLate != 1 || d.RowsFolded != 1 {
		t.Fatalf("flush: compacted=%d late=%d folded=%d, want 64/1/1", d.IngestCompacted, d.IngestLate, d.RowsFolded)
	}
	// Every fact wrote one bottom row (appended or merged into); the late
	// one also died there and wrote one month row.
	if d.SnapshotLevelledRows < 64 || d.SnapshotLevelledRows > 2*64 {
		t.Fatalf("flush of 64 facts levelled %d rows, want 64..128", d.SnapshotLevelledRows)
	}
	if d.SnapshotReclones != 0 || d.ProgramCacheMisses != 0 {
		t.Fatalf("flush: reclones=%d compiles=%d, want 0/0", d.SnapshotReclones, d.ProgramCacheMisses)
	}
	sidesLevel(t, w, "after the flush with a late fact")

	// A new day is pinned by the side that first synchronizes on it, for
	// both: two flushes, one on each side, one router between them.
	before = w.Metrics()
	if err := w.AdvanceTo(deltaGateToday + 1); err != nil {
		t.Fatal(err)
	}
	for _, step := range []string{"first flush of the new day", "second flush, on the other side"} {
		d := flush64(t, w, obj)
		// Still delta-only, under TestSyncScansOnlyTheDelta's bound.
		if d.Syncs != 1 || d.SyncsIncremental != 1 || d.SyncScanned > 64 {
			t.Fatalf("%s: syncs=%d incremental=%d scanned=%d, want 1/1/<=64", step, d.Syncs, d.SyncsIncremental, d.SyncScanned)
		}
		if d.SnapshotLevelledRows == 0 || d.SnapshotLevelledRows > 2*64 || d.SnapshotReclones != 0 {
			t.Fatalf("%s: levelled=%d reclones=%d, want 1..128/0", step, d.SnapshotLevelledRows, d.SnapshotReclones)
		}
		sidesLevel(t, w, step)
	}
	d = w.Metrics().Sub(before)
	if pins := routerPins(d); pins > 1 || d.ProgramCacheMisses != 0 {
		t.Fatalf("a clock advance and a flush on each side pinned %d routers and compiled %d programs, want at most 1 and 0", pins, d.ProgramCacheMisses)
	}
}

// levelWaitsForPinnedReader is recloneBesidePinnedReader's counterpart
// for the level arm: a reader pinned to the snapshot a small commit
// retires keeps getting that snapshot's answer while the commit waits to
// level its side, and the commit levels it once the reader is gone.
func levelWaitsForPinnedReader(t *testing.T) {
	w, obj := openClickWarehouse(t)
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(start + 130); err != nil {
		t.Fatal(err)
	}
	refs, meas := stressRows(t, obj, 501, start)
	err := w.LoadBatch(func(ld func([]mdm.ValueID, []float64) error) error {
		for i := 0; i < 500; i++ {
			if err := ld(refs[i], meas[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	q := subcube.MustParseQuery(`aggregate [Time.TOP, URL.TOP]`, w.Env())
	count := func(cs *subcube.CubeSet, at caltime.Day) float64 {
		mo, err := cs.Evaluate(q, at)
		if err != nil || mo.Len() != 1 {
			t.Errorf("grand total: %d cells, err %v", mo.Len(), err)
			return -1
		}
		return mo.Measure(0, 0)
	}

	pinned := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := w.pin()
		defer w.unpin(s)
		close(pinned)
		// Until the writer has published and stands in the drain, and for
		// a while after: the pinned side still holds 500 facts.
		for waited := 0; waited < 50; {
			if n := count(s.cubes, s.now); n != 500 {
				t.Errorf("pinned snapshot answers %v, want the 500 facts it was published with", n)
				return
			}
			if w.met.SnapshotsRetained.Load() == 1 {
				waited++
			} else {
				runtime.Gosched()
			}
		}
	}()
	<-pinned

	before := w.Metrics()
	if err := w.Load(refs[500], meas[500]); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	d := w.Metrics().Sub(before)
	// The fact is of 21 January: a bottom row that came and went, and the
	// month row it was folded into.
	if d.SnapshotReclones != 0 || d.SnapshotDrainWaits != 1 || d.SnapshotLevelledRows != 2 {
		t.Errorf("single-fact Load beside a pinned reader: reclones=%d drain waits=%d levelled=%d, want 0/1/2",
			d.SnapshotReclones, d.SnapshotDrainWaits, d.SnapshotLevelledRows)
	}
	if n := count(w.Cubes(), w.Now()); n != 501 {
		t.Errorf("published snapshot answers %v, want 501", n)
	}
	sidesLevel(t, w, "after the reader left")
}

// TestSpecHandedOutIsNeverWritten: a spec Spec returned stays as it was
// handed out. A small commit levels the retired side that spec belongs to
// and adopts the side as the working one; the specification change that
// follows edits a clone of the side's spec, never the spec itself, which
// a reader may still be reading.
func TestSpecHandedOutIsNeverWritten(t *testing.T) {
	for _, leg := range []struct {
		name   string
		change func(w *Warehouse, churn *spec.Action) error
	}{
		{"InsertActions", func(w *Warehouse, churn *spec.Action) error { return w.InsertActions(churn) }},
		{"DeleteActions", func(w *Warehouse, churn *spec.Action) error { return w.DeleteActions(churn.Name()) }},
	} {
		t.Run(leg.name, func(t *testing.T) {
			obj, env := clickEnv(t)
			mAct, qAct, churn := stressSpec(t, env)
			actions := []*spec.Action{mAct, qAct}
			if leg.name == "DeleteActions" {
				actions = append(actions, churn)
			}
			w, err := Open(env, actions...)
			if err != nil {
				t.Fatal(err)
			}
			start := caltime.Date(2000, 1, 1)
			if err := w.AdvanceTo(start + 130); err != nil {
				t.Fatal(err)
			}
			refs, meas := stressRows(t, obj, 391, start)
			load := func(lo, hi int) {
				t.Helper()
				err := w.LoadBatch(func(ld func([]mdm.ValueID, []float64) error) error {
					for i := lo; i < hi; i++ {
						if err := ld(refs[i], meas[i]); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			load(0, 390)
			held := w.Spec()
			was, gen := held.String(), held.Generation()
			before := w.Metrics()
			load(390, 391)
			if d := w.Metrics().Sub(before); d.SnapshotLevelledRows == 0 || d.SnapshotReclones != 0 {
				t.Fatalf("one-row batch: levelled=%d reclones=%d, want the held spec's side levelled, not recloned",
					d.SnapshotLevelledRows, d.SnapshotReclones)
			}
			if err := leg.change(w, churn); err != nil {
				t.Fatal(err)
			}
			if held.String() != was || held.Generation() != gen {
				t.Errorf("%s wrote the spec Spec had handed out:\n%s\nwas (generation %d):\n%s",
					leg.name, held, gen, was)
			}
			if w.Spec().String() == was {
				t.Errorf("%s did not change the published spec", leg.name)
			}
		})
	}
}
