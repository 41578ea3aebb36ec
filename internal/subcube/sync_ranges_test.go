package subcube

import (
	"runtime"
	"slices"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/core"
	"dimred/internal/mdm"
	"dimred/internal/query"
	"dimred/internal/spec"
	"dimred/internal/storage"
	"dimred/internal/workload"
)

// TestSyncRangesKeepRowOrder: a cube of at least two scan ranges is
// scanned as row ranges on as many goroutines, and the apply must still
// see the movers in (source cube, source row) order. With GOMAXPROCS at
// least 2, a sync that folds the whole of a bottom cube of two ranges must
// leave every cube's rows — cells, measures, base counts and physical
// order — as one walk of the cubes in row order does (oneRangeSync), and
// must hold the cells of the Definition 2 oracle. RowsAppended and
// RowsMerged count one per fact inserted and one per row moved. A
// delta-only Sync splits the bottom cube's tail the same way: a burst on
// the synchronized day of at least two ranges of new rows must sync to
// the same walk and oracle, scanning exactly the rows it appended.
func TestSyncRangesKeepRowOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	obj, err := workload.BuildClickMO(workload.ClickConfig{
		Seed: 25, Start: caltime.Date(2000, 1, 1), Days: 150,
		ClicksPerDay: 500, Domains: 500, URLsPerDomain: 10, ZipfS: 1.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	s := syncTestSpec(t, env)
	cs, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	rows := func() int64 { return cs.met.RowsAppended.Load() + cs.met.RowsMerged.Load() }
	if err := cs.InsertMO(obj.MO); err != nil {
		t.Fatal(err)
	}
	if got := rows(); got != int64(obj.MO.Len()) {
		t.Fatalf("inserting %d facts appended or merged %d rows", obj.MO.Len(), got)
	}
	if rows := cs.cubes[0].store.Rows(); rows < 2*scanRange {
		t.Fatalf("the bottom cube holds %d rows, want at least %d for two scan ranges", rows, 2*scanRange)
	}
	// Every day of the stream is a month row by then: movers come from
	// every range.
	at := syncDays[1]
	syncAsOneWalk(t, cs, s, obj.MO, at)

	// The burst: every fact once more. The bottom cube was emptied, so it
	// appends as many rows as it held before, and every row is late.
	all, err := query.Union(obj.MO, obj.MO)
	if err != nil {
		t.Fatal(err)
	}
	appended := cs.met.RowsAppended.Load()
	if err := cs.InsertMO(obj.MO); err != nil {
		t.Fatal(err)
	}
	if appended = cs.met.RowsAppended.Load() - appended; appended < 2*scanRange {
		t.Fatalf("the burst appended %d rows, want at least %d for two scan ranges", appended, 2*scanRange)
	}
	before := cs.met.Snapshot()
	syncAsOneWalk(t, cs, s, all, at)
	if d := cs.met.Snapshot().Sub(before); d.SyncsIncremental != 1 || d.SyncScanned != appended {
		t.Fatalf("the burst's Sync: incremental=%d scanned=%d, want 1 and the %d rows it appended", d.SyncsIncremental, d.SyncScanned, appended)
	}
}

// syncAsOneWalk syncs cs at at and fails unless every cube's live rows are
// those oneRangeSync gives, in its order, and the cells of the Definition
// 2 oracle of facts, the MO of every fact inserted into cs.
func syncAsOneWalk(t *testing.T, cs *CubeSet, s *spec.Spec, facts *mdm.MO, at caltime.Day) {
	t.Helper()
	rows := func() int64 { return cs.met.RowsAppended.Load() + cs.met.RowsMerged.Load() }
	want := oneRangeSync(t, cs, at)
	before := rows()
	moved, err := cs.Sync(at)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows() - before; got != int64(moved) || cs.DeletedFacts() != 0 {
		t.Fatalf("a sync that moved %d rows and deleted %d facts appended or merged %d", moved, cs.DeletedFacts(), got)
	}
	oracle := map[string]rangeRow{}
	red, err := core.ReduceInterpreted(s, facts, at)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < red.MO.Len(); f++ {
		id := mdm.FactID(f)
		oracle[string(mdm.AppendCellKey(nil, red.MO.Refs(id)))] = rangeRow{meas: red.MO.Measures(id), base: red.MO.BaseCount(id)}
	}
	for ci, c := range cs.cubes {
		i := 0
		c.store.Scan(func(r storage.RowID) bool {
			got := rangeRow{cell: c.store.Refs(r, nil), base: c.store.Base(r)}
			for j := range cs.env.Schema.Measures {
				got.meas = append(got.meas, c.store.Measure(r, j))
			}
			if i >= len(want[ci]) {
				t.Fatalf("K%d holds more than the %d rows one walk in row order gives", ci, len(want[ci]))
			}
			if !got.equal(want[ci][i]) {
				t.Fatalf("K%d live row %d is %v, one walk in row order gives %v", ci, i, got, want[ci][i])
			}
			o, ok := oracle[string(mdm.AppendCellKey(nil, got.cell))]
			if o.cell = got.cell; !ok || !got.equal(o) {
				t.Fatalf("K%d row %d is %v, the Definition 2 oracle has %v (held %v)", ci, r, got, o, ok)
			}
			delete(oracle, string(mdm.AppendCellKey(nil, got.cell)))
			i++
			return true
		})
		if i != len(want[ci]) {
			t.Fatalf("K%d holds %d rows, one walk in row order gives %d", ci, i, len(want[ci]))
		}
	}
	if len(oracle) != 0 {
		t.Fatalf("%d cells of the Definition 2 oracle are missing", len(oracle))
	}
}

// rangeRow is one live row: its cell, measures and base count.
type rangeRow struct {
	cell []mdm.ValueID
	meas []float64
	base int64
}

func (a rangeRow) equal(b rangeRow) bool {
	return slices.Equal(a.cell, b.cell) && slices.Equal(a.meas, b.meas) && a.base == b.base
}

// oneRangeSync returns, per cube and in row order, the live rows Sync at
// t leaves in cs, computed by the plainest walk: the specification's own
// DeletedBy and AggLevel per row, the cubes in order and each cube's live
// rows in row order, every mover merged into its destination as it comes
// (Group_high: a cell the destination holds takes the merge, any other
// cell is appended). It only reads cs.
func oneRangeSync(t *testing.T, cs *CubeSet, at caltime.Day) [][]rangeRow {
	t.Helper()
	schema := cs.env.Schema
	kept := make([][]rangeRow, len(cs.cubes))
	index := make([]map[string]int, len(cs.cubes))
	var movers []rangeRow
	var dsts []int
	for ci, c := range cs.cubes {
		index[ci] = map[string]int{}
		c.store.Scan(func(r storage.RowID) bool {
			x := rangeRow{cell: c.store.Refs(r, nil), base: c.store.Base(r)}
			for j := range schema.Measures {
				x.meas = append(x.meas, c.store.Measure(r, j))
			}
			if cs.sp.DeletedBy(x.cell, at) != nil {
				return true
			}
			level, _ := cs.sp.AggLevel(x.cell, at)
			if schema.GranEq(level, c.gran) {
				index[ci][string(mdm.AppendCellKey(nil, x.cell))] = len(kept[ci])
				kept[ci] = append(kept[ci], x)
				return true
			}
			up, err := schema.RollUp(nil, x.cell, level)
			if err != nil {
				t.Fatal(err)
			}
			x.cell = up
			movers = append(movers, x)
			dsts = append(dsts, cs.cubeAt(level).id)
			return true
		})
	}
	for k, x := range movers {
		d, key := dsts[k], string(mdm.AppendCellKey(nil, x.cell))
		if i, ok := index[d][key]; ok {
			held := &kept[d][i]
			for j, m := range schema.Measures {
				held.meas[j] = m.Agg.Merge(held.meas[j], x.meas[j])
			}
			held.base += x.base
			continue
		}
		index[d][key] = len(kept[d])
		kept[d] = append(kept[d], x)
	}
	return kept
}
