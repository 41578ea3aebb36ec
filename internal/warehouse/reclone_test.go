package warehouse

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/spec"
	"dimred/internal/subcube"
)

// sideCells renders a cube set's cells per cube (DumpCells, so sorted),
// with the deleted-fact total: what a refused commit must leave as it
// was.
func sideCells(t *testing.T, env *spec.Env, cs *subcube.CubeSet) string {
	t.Helper()
	var b strings.Builder
	for _, c := range cs.Cubes() {
		mo, err := c.MO(env.Schema)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "K%d %s rows=%d\n%s", c.ID(), env.Schema.GranString(c.Gran()), c.Rows(), mo.DumpCells())
	}
	fmt.Fprintf(&b, "deleted=%d\n", cs.DeletedFacts())
	return b.String()
}

// sideRows renders a cube set's live rows in physical order, with the
// tombstones each cube carries and the sync state: what the working and
// the published side must agree on after every commit, whichever copy
// levelled them.
func sideRows(t testing.TB, env *spec.Env, cs *subcube.CubeSet) string {
	t.Helper()
	var b strings.Builder
	for _, c := range cs.Cubes() {
		mo, err := c.MO(env.Schema)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "K%d rows=%d dead=%d\n", c.ID(), c.Rows(), c.Dead())
		for f := 0; f < mo.Len(); f++ {
			fid := mdm.FactID(f)
			fmt.Fprintf(&b, "%v %v %d\n", mo.Refs(fid), mo.Measures(fid), mo.BaseCount(fid))
		}
	}
	last, synced := cs.LastSync()
	fmt.Fprintf(&b, "deleted=%d lastSync=%v synced=%v\n", cs.DeletedFacts(), last, synced)
	return b.String()
}

// sidesLevel fails unless the working side is the published one, row for
// physical row.
func sidesLevel(t testing.TB, w *Warehouse, step string) {
	t.Helper()
	if pub, work := sideRows(t, w.env, w.Cubes()), sideRows(t, w.env, w.working); pub != work {
		t.Fatalf("%s: working side differs from the published one\npublished:\n%s\nworking:\n%s", step, pub, work)
	}
}

// TestBulkCommitAppliesOnce pins the copy rule of the commit protocol:
// which commits clone the published side and which level the retired one
// from the journal, that both leave the two sides level and the
// incremental Sync's bookkeeping intact, and that a reader holding the
// retired snapshot neither blocks a clone nor sees it. That the choice
// changes no cell is TestWarehouseMatchesModel's, under every arm.
func TestBulkCommitAppliesOnce(t *testing.T) {
	t.Run("bulk load reclones, group commit levels", bulkReclonesFlushLevels)
	t.Run("pinned reader", recloneBesidePinnedReader)
}

// bulkReclonesFlushLevels is (a) and (b): after a LoadBatch larger than
// the state it leaves the other side is a clone of the result; after a
// 64-fact group commit into the 20 k rows it left the retired side is
// levelled; after either the next flush is still delta-only, under
// TestSyncScansOnlyTheDelta's bound.
func bulkReclonesFlushLevels(t *testing.T) {
	w, obj := openDeltaGateWarehouse(t)

	before := w.Metrics()
	loadMO(t, w, obj.MO)
	d := w.Metrics().Sub(before)
	if d.SnapshotReclones != 1 || d.SnapshotPublishes != 1 {
		t.Fatalf("bulk load: reclones=%d publishes=%d, want 1/1", d.SnapshotReclones, d.SnapshotPublishes)
	}
	// Applied once: every fact is counted once whichever way the other
	// side was levelled, and nothing compiled for the copy.
	if d.FactsLoaded != int64(obj.MO.Len()) || d.RowsAppended+d.RowsMerged < d.FactsLoaded {
		t.Fatalf("bulk load: facts=%d appended=%d merged=%d for %d facts", d.FactsLoaded, d.RowsAppended, d.RowsMerged, obj.MO.Len())
	}
	if d.ProgramCacheMisses != 0 {
		t.Fatalf("bulk load compiled %d programs, want the first AdvanceTo's reused", d.ProgramCacheMisses)
	}
	if live := w.Metrics().LiveRows; live < 20000 {
		t.Fatalf("set-up left %d live rows, the test wants at least 20000", live)
	}
	sidesLevel(t, w, "after the bulk load")

	flush := func(step string) {
		t.Helper()
		d := flush64(t, w, obj)
		if d.SnapshotReclones != 0 {
			t.Fatalf("%s: reclones=%d, want the retired side levelled", step, d.SnapshotReclones)
		}
		if d.Syncs != 1 || d.SyncsIncremental != 1 || d.SyncScanned > 64 || d.ProgramCacheMisses != 0 {
			t.Fatalf("%s: syncs=%d incremental=%d scanned=%d compiles=%d, want 1/1/<=64/0",
				step, d.Syncs, d.SyncsIncremental, d.SyncScanned, d.ProgramCacheMisses)
		}
		sidesLevel(t, w, step)
	}
	flush("first flush after the clone")
	flush("second flush, on the levelled side")

	// The month boundary folds April: a commit that moves more rows than
	// a quarter of what it leaves is copied again, and the flush after it
	// is delta-only again.
	before = w.Metrics()
	if err := w.AdvanceTo(caltime.Date(2000, 6, 1)); err != nil {
		t.Fatal(err)
	}
	d = w.Metrics().Sub(before)
	if d.RowsFolded*recloneFactor < w.Metrics().LiveRows {
		t.Fatalf("the boundary folded %d rows into %d, too few for the rule", d.RowsFolded, w.Metrics().LiveRows)
	}
	if d.SnapshotReclones != 1 || d.ProgramCacheMisses != 0 {
		t.Fatalf("month-boundary fold: reclones=%d compiles=%d, want 1/0", d.SnapshotReclones, d.ProgramCacheMisses)
	}
	sidesLevel(t, w, "after the month-boundary fold")
	flush("flush after the boundary")
}

// recloneBesidePinnedReader is (d): a reader pinned to the snapshot a
// bulk commit retires keeps getting that snapshot's answer, the commit
// returns without waiting for it (nothing will write the retired side),
// and the small commit that follows — which drains the other side —
// does not wait for it either.
func recloneBesidePinnedReader(t *testing.T) {
	w, obj := openClickWarehouse(t)
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(start + 130); err != nil {
		t.Fatal(err)
	}
	refs, meas := stressRows(t, obj, 600, start)
	batch := func(lo, hi int) {
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
	batch(0, 100)
	q := subcube.MustParseQuery(`aggregate [Time.TOP, URL.TOP]`, w.Env())
	count := func(cs *subcube.CubeSet, at caltime.Day) (float64, error) {
		mo, err := cs.Evaluate(q, at)
		if err != nil || mo.Len() != 1 {
			return 0, fmt.Errorf("grand total: %d cells, err %v", mo.Len(), err)
		}
		return mo.Measure(0, 0), nil
	}

	pinned := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := w.pin()
		defer w.unpin(s)
		close(pinned)
		for {
			if n, err := count(s.cubes, s.now); err != nil || n != 100 {
				t.Errorf("pinned snapshot answers %v (%v), want the 100 facts it was published with", n, err)
				return
			}
			select {
			case <-release:
				return
			default:
			}
		}
	}()
	<-pinned

	before := w.Metrics()
	batch(100, 500) // returns while the reader still holds the retired snapshot
	d := w.Metrics().Sub(before)
	if d.SnapshotReclones != 1 || d.SnapshotDrainWaits != 0 {
		t.Errorf("bulk commit beside a pinned reader: reclones=%d drain waits=%d, want 1/0",
			d.SnapshotReclones, d.SnapshotDrainWaits)
	}
	// A levelled commit next: it drains the side the bulk commit
	// published on, not the one the reader is on.
	before = w.Metrics()
	if err := w.Load(refs[500], meas[500]); err != nil {
		t.Fatal(err)
	}
	if d := w.Metrics().Sub(before); d.SnapshotReclones != 0 {
		t.Errorf("single-fact Load into 500: %d reclones, want the retired side levelled", d.SnapshotReclones)
	}
	if n, err := count(w.Cubes(), w.Now()); err != nil || n != 501 {
		t.Errorf("published snapshot answers %v (%v), want 501", n, err)
	}
	close(release)
	wg.Wait()
	// With the reader gone the next commit drains its side and levels it.
	if err := w.Load(refs[501], meas[501]); err != nil {
		t.Fatal(err)
	}
	sidesLevel(t, w, "after the reader left")
}
