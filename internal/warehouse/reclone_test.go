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
	"dimred/internal/workload"
)

// sideCells renders a cube set's cells per cube (DumpCells, so sorted),
// with the deleted-fact total: what two sides, or a side and the
// interpreted oracle, must agree on.
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
func sideRows(t *testing.T, env *spec.Env, cs *subcube.CubeSet) string {
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
func sidesLevel(t *testing.T, w *Warehouse, step string) {
	t.Helper()
	if pub, work := sideRows(t, w.env, w.Cubes()), sideRows(t, w.env, w.working); pub != work {
		t.Fatalf("%s: working side differs from the published one\npublished:\n%s\nworking:\n%s", step, pub, work)
	}
}

// TestBulkCommitAppliesOnce pins the copy rule of the commit protocol:
// which commits clone the published side and which level the retired one
// from the journal, that both leave the two sides level and the
// incremental Sync's bookkeeping intact, that the choice changes no cell,
// and that a reader holding the retired snapshot neither blocks a clone
// nor sees it.
func TestBulkCommitAppliesOnce(t *testing.T) {
	t.Run("bulk load reclones, group commit levels", bulkReclonesFlushLevels)
	for _, rule := range []struct {
		name    string
		reclone func(applied, left int) bool
	}{
		{"never", func(int, int) bool { return false }},
		{"always", func(int, int) bool { return true }},
		{"rule", recloneRule},
	} {
		t.Run("oracle cells/"+rule.name, func(t *testing.T) { recloneVsOracle(t, rule.name, rule.reclone) })
	}
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
	if d.ProgramCompiles != 0 {
		t.Fatalf("bulk load compiled %d programs, want the first AdvanceTo's reused", d.ProgramCompiles)
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
		if d.Syncs != 1 || d.SyncsIncremental != 1 || d.SyncScanned > 64 || d.ProgramCompiles != 0 {
			t.Fatalf("%s: syncs=%d incremental=%d scanned=%d compiles=%d, want 1/1/<=64/0",
				step, d.Syncs, d.SyncsIncremental, d.SyncScanned, d.ProgramCompiles)
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
	if d.SnapshotReclones != 1 || d.ProgramCompiles != 0 {
		t.Fatalf("month-boundary fold: reclones=%d compiles=%d, want 1/0", d.SnapshotReclones, d.ProgramCompiles)
	}
	sidesLevel(t, w, "after the month-boundary fold")
	flush("flush after the boundary")
}

// recloneVsOracle is (c): one script — bulk loads, month-boundary
// advances, specification churn, a late Load, a group commit — under a
// forced or the real reclone rule, mirrored onto an interpreted cube
// set; forced off, every commit of the script is levelled from the
// journal, layout rebuilds and compactions included. After every step
// both sides hold the oracle's cells and each other's rows: the rule
// decides cost, never content.
func recloneVsOracle(t *testing.T, name string, reclone func(applied, left int) bool) {
	obj, err := workload.NewClickSchema()
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	mAct, qAct, churn := stressSpec(t, env)
	w, err := Open(env, mAct, qAct)
	if err != nil {
		t.Fatal(err)
	}
	w.reclone = reclone
	oracleSpec, err := spec.New(env, mAct, qAct)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := subcube.New(oracleSpec)
	if err != nil {
		t.Fatal(err)
	}
	oracle.SetInterpreted(true)

	start := caltime.Date(2000, 1, 1)
	refs, meas := stressRows(t, obj, 240, start)

	// The oracle folds exactly when the warehouse did.
	syncsSeen := w.Metrics().Syncs
	check := func(step string) {
		t.Helper()
		if n := w.Metrics().Syncs; n != syncsSeen {
			syncsSeen = n
			if _, err := oracle.Sync(w.Now()); err != nil {
				t.Fatal(err)
			}
		}
		want := sideCells(t, env, oracle)
		if got := sideCells(t, env, w.Cubes()); got != want {
			t.Fatalf("%s: published side diverged\ngot:\n%s\noracle:\n%s", step, got, want)
		}
		sidesLevel(t, w, step)
	}
	advance := func(d caltime.Day) {
		t.Helper()
		if err := w.AdvanceTo(d); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("advance to %v", d))
	}
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
		for i := lo; i < hi; i++ {
			if err := oracle.Insert(refs[i], meas[i]); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("load [%d,%d)", lo, hi))
	}

	advance(caltime.Date(2000, 3, 1))
	load(0, 80)
	advance(caltime.Date(2000, 5, 1)) // February leaves the bottom cube
	load(80, 160)

	if err := w.InsertActions(churn); err != nil {
		t.Fatal(err)
	}
	if err := oracleSpec.Insert(churn); err != nil {
		t.Fatal(err)
	}
	if err := oracle.ApplySpec(oracleSpec, w.Now()); err != nil {
		t.Fatal(err)
	}
	check("insert churn action")

	// refs[3] is 4 January: aggregated to the month since 1 March.
	before := w.Metrics()
	if err := w.Load(refs[3], meas[3]); err != nil {
		t.Fatal(err)
	}
	if d := w.Metrics().Sub(before); d.Syncs != 1 {
		t.Fatalf("late Load ran %d syncs, want 1", d.Syncs)
	}
	if err := oracle.Insert(refs[3], meas[3]); err != nil {
		t.Fatal(err)
	}
	check("late Load")

	advance(caltime.Date(2000, 6, 1)) // March leaves
	for i := 160; i < 176; i++ {
		if err := w.Ingest(refs[i], meas[i]); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Insert(refs[i], meas[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.FlushIngest(); err != nil {
		t.Fatal(err)
	}
	check("group commit")

	if err := w.DeleteActions("y"); err != nil {
		t.Fatal(err)
	}
	mo, err := materialize(env, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracleSpec.Delete(mo, w.Now(), "y"); err != nil {
		t.Fatal(err)
	}
	if err := oracle.ApplySpec(oracleSpec, w.Now()); err != nil {
		t.Fatal(err)
	}
	check("delete churn action")

	load(176, 240)
	advance(caltime.Date(2001, 1, 1))
	advance(caltime.Date(2001, 6, 1)) // the quarter action folds 2000

	m := w.Metrics()
	switch reclones := m.SnapshotReclones; {
	case name == "never" && reclones != 0:
		t.Errorf("%d reclones with the rule forced off", reclones)
	case name != "never" && reclones == 0:
		t.Errorf("the script never cloned the published side")
	}
	if m.IngestQueued != m.IngestCompacted+m.IngestRejected {
		t.Errorf("ingest ledger: queued %d != compacted %d + rejected %d", m.IngestQueued, m.IngestCompacted, m.IngestRejected)
	}
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
		s, p := w.pin()
		defer p.Unpin()
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
