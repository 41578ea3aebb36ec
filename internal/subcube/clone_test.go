package subcube

import (
	"reflect"
	"runtime"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/spec"
	"dimred/internal/storage"
	"dimred/internal/workload"
)

// TestCellIndexRemapShrinks: a remap moves the surviving entries into a
// table sized to them, the fewest slots (a power of two) that hold them
// at most three quarters full, whether the compaction reclaimed most rows
// or half of them; the string-keyed entries are rewritten beside them.
// Every surviving cell resolves to its new row and no reclaimed cell
// resolves at all, through both the packed and the string key.
func TestCellIndexRemapShrinks(t *testing.T) {
	const n = 1 << 15
	// Three dimensions pack 21 bits per value; a wider value takes the
	// string key.
	cell := func(i int, wide bool) []mdm.ValueID {
		if wide {
			return []mdm.ValueID{mdm.ValueID(1<<21 + i), 1, 2}
		}
		return []mdm.ValueID{mdm.ValueID(i), 1, 2}
	}
	// slots is the slot count of the index's packed table.
	slots := func(ix *mdm.CellMap[storage.RowID]) int {
		return reflect.ValueOf(ix).Elem().FieldByName("keys").Len()
	}
	for _, tc := range []struct {
		name          string
		keep          int
		before, after int // slots
	}{
		{"folded away", 16, 1 << 16, 2048}, // 31 744 packed cells put, 1 024 left
		{"half left", 2, 1 << 15, 16384},   // 16 384 put, 8 192 left
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The index as the fold left it: every slot's cell was put, the
			// reclaimed rows' cells deleted again, alternating between the
			// two keys.
			ix := mdm.NewCellMap[storage.RowID](3)
			remap := make([]storage.RowID, n)
			live := 0
			for i := range remap {
				ix.Put(cell(i, i%(2*tc.keep) == 0), storage.RowID(i))
			}
			if got := slots(ix); got != tc.before {
				t.Fatalf("%d slots before the remap, want %d", got, tc.before)
			}
			for i := range remap {
				remap[i] = -1
				if i%tc.keep == 0 {
					remap[i] = storage.RowID(live)
					live++
				} else {
					ix.Delete(cell(i, false))
				}
			}
			remapIndex(ix, remap)
			if got := slots(ix); got != tc.after {
				t.Errorf("%d of %d rows left: %d slots after the remap, want %d", live, n, got, tc.after)
			}
			if ix.Len() != live {
				t.Fatalf("%d entries after the remap, want %d", ix.Len(), live)
			}
			for i := 0; i < n; i++ {
				for _, wide := range []bool{false, true} {
					r, ok := ix.Get(cell(i, wide))
					want := i%tc.keep == 0 && wide == (i%(2*tc.keep) == 0)
					if ok != want || ok && r != remap[i] {
						t.Fatalf("cell %d (wide=%v) resolves to %d, %v; want %d, %v", i, wide, r, ok, remap[i], want)
					}
				}
			}
		})
	}
}

// retainedHeap returns the live heap after a full collection.
func retainedHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestReductionReturnsMemory: after a bulk load is folded away, the cube
// set holds what its rows need, not what the load needed. The yardstick
// is its own Clone, whose columns and maps are sized to the rows by
// construction: folding in place may keep at most twice that.
func TestReductionReturnsMemory(t *testing.T) {
	obj, err := workload.BuildClickMO(workload.ClickConfig{
		Seed: 3, Start: caltime.Date(2000, 1, 1), Days: 150,
		ClicksPerDay: 400, Domains: 200, URLsPerDomain: 10, ZipfS: 1.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.New(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env))
	if err != nil {
		t.Fatal(err)
	}

	base := retainedHeap()
	cs, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.InsertMO(obj.MO); err != nil {
		t.Fatal(err)
	}
	loaded := cs.TotalRows()
	if _, err := cs.Sync(caltime.Date(2000, 12, 1)); err != nil {
		t.Fatal(err)
	}
	left := cs.TotalRows()
	if left*8 > loaded {
		t.Fatalf("the fold left %d of %d rows, the test wants a reduction of 8x or more", left, loaded)
	}
	folded := retainedHeap() - base
	cl := cs.Clone()
	cloned := retainedHeap() - base - folded

	const slack = 64 << 10 // collector bookkeeping, the shared metric set
	if folded > 2*cloned+slack {
		t.Errorf("%d rows folded to %d hold %d bytes (%d a row); a clone of them holds %d (%d a row)",
			loaded, left, folded, folded/int64(left), cloned, cloned/int64(left))
	}

	// The compacted cubes still resolve every row through their index.
	refs := make([]mdm.ValueID, env.Schema.NumDims())
	for _, c := range cs.Cubes() {
		c.store.Scan(func(r storage.RowID) bool {
			if got, ok := c.index.Get(c.store.Refs(r, refs)); !ok || got != r {
				t.Fatalf("K%d row %d: index resolves its cell to %d, %v", c.ID(), r, got, ok)
			}
			return true
		})
	}
	if a, b := dumpCubes(cs, false), dumpCubes(cl, false); a != b {
		t.Fatal("clone differs from the compacted cube set")
	}
	runtime.KeepAlive(obj)
}

// TestCloneStartsWarm: a clone shares the compiled program and the pinned
// routers of the action set it was cloned with — it neither compiles nor
// pins before its first Sync, and that Sync is still delta-only — and
// keeps them when the original's owner mutates the original's
// specification.
func TestCloneStartsWarm(t *testing.T) {
	p := newLockstepPool(t)
	s, err := spec.New(p.env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, p.env),
		spec.MustCompileString("q", `aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`, p.env))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	today := caltime.Date(2000, 9, 14)
	for d := p.first; d <= today; d += 3 {
		for u := range p.urls {
			if err := cs.Insert([]mdm.ValueID{p.days[d-p.first], p.urls[u]}, []float64{1, 2, 3, 4}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := cs.Sync(today); err != nil {
		t.Fatal(err)
	}

	before := cs.Metrics().Snapshot()
	cl := cs.Clone()
	fact := []mdm.ValueID{p.days[today-p.first], p.urls[0]}
	for _, side := range []*CubeSet{cl, cs} {
		if err := side.Insert(fact, []float64{1, 5, 5, 5}); err != nil {
			t.Fatal(err)
		}
		if _, err := side.Sync(today); err != nil {
			t.Fatal(err)
		}
	}
	d := cs.Metrics().Snapshot().Sub(before)
	if d.ProgramCacheMisses != 0 {
		t.Errorf("across a clone: %d program cache misses, want 0", d.ProgramCacheMisses)
	}
	if d.SyncsIncremental != 2 || d.SyncScanned != 2 {
		t.Errorf("one fact on each side: incremental syncs=%d scanned=%d, want 2/2", d.SyncsIncremental, d.SyncScanned)
	}
	if d.RouterCacheHits < 2 {
		t.Errorf("router cache hits = %d, want the pinned router reused on both sides", d.RouterCacheHits)
	}
	if a, b := dumpCubes(cs, false), dumpCubes(cl, false); a != b {
		t.Fatal("original and clone diverged over the same insert and sync")
	}

	// A specification change on the original recompiles there and leaves
	// the clone's program alone.
	extra := spec.MustCompileString("y", `aggregate [Time.year, URL.domain_grp] where Time.year <= NOW - 3 years`, p.env)
	if err := cs.sp.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if err := cs.ApplySpec(cs.sp, today); err != nil {
		t.Fatal(err)
	}
	before = cs.Metrics().Snapshot()
	if _, err := cl.Sync(today); err != nil {
		t.Fatal(err)
	}
	if d := cs.Metrics().Snapshot().Sub(before); d.ProgramCacheMisses != 0 {
		t.Errorf("the clone recompiled (%d) after the original's specification changed", d.ProgramCacheMisses)
	}
	if len(cl.sp.Actions()) != 2 || len(cl.Cubes()) != 3 {
		t.Errorf("the clone has %d actions and %d cubes after the original's change, want 2 and 3", len(cl.sp.Actions()), len(cl.Cubes()))
	}
}
