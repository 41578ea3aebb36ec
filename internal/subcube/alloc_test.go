package subcube

import (
	"math/rand"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/query"
	"dimred/internal/spec"
	"dimred/internal/storage"
)

// TestMergeIntoAllocationFree pins the packed-cell-key fast path: once
// a cell is resident, merging further rows into it allocates nothing —
// the index probe packs the cell into a uint64 and the measure fold
// mutates in place.
func TestMergeIntoAllocationFree(t *testing.T) {
	obj, env := syncTestObj(t, 31)
	s := syncTestSpec(t, env)
	cs, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	bottom := cs.cubes[0]
	refs := obj.MO.Refs(0)
	meas := obj.MO.Measures(0)
	if _, err := cs.mergeInto(bottom, refs, meas, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := cs.mergeInto(bottom, refs, meas, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("mergeInto on a resident cell allocated %.1f times per run, want 0", allocs)
	}
}

// TestCellIndexPackedRouting: with two dimensions every in-range cell
// packs, so probing and re-putting it costs no allocation; negative values
// (mdm.NoValue) must fall back to the string key rather than alias a
// packed one. (Which map a cell lands in is pinned beside the table, in
// mdm's TestCellMapRouting.)
func TestCellIndexPackedRouting(t *testing.T) {
	ix := mdm.NewCellMap[storage.RowID](2)
	ix.Put([]mdm.ValueID{3, 4}, 7)
	if r, ok := ix.Get([]mdm.ValueID{3, 4}); !ok || r != 7 {
		t.Fatalf("get = %v, %v; want 7, true", r, ok)
	}
	cell := []mdm.ValueID{3, 4}
	if allocs := testing.AllocsPerRun(100, func() {
		ix.Put(cell, 7)
		ix.Get(cell)
	}); allocs != 0 {
		t.Fatalf("an in-range cell cost %.1f allocations per put and get, want 0", allocs)
	}
	ix.Put([]mdm.ValueID{mdm.NoValue, 4}, 9)
	if ix.Len() != 2 {
		t.Fatalf("%d entries, want 2: the negative value aliased a packed key", ix.Len())
	}
	if r, ok := ix.Get([]mdm.ValueID{mdm.NoValue, 4}); !ok || r != 9 {
		t.Fatalf("fallback get = %v, %v; want 9, true", r, ok)
	}
	ix.Delete([]mdm.ValueID{3, 4})
	if _, ok := ix.Get([]mdm.ValueID{3, 4}); ok {
		t.Fatal("deleted packed cell still resolves")
	}
}

// TestRollUpRowsEvalAllocationProfile guards the hoisted scratch in the
// unsynchronized query: rolling a cube's rows up to their levels probes
// the compiled router without per-row allocations beyond the part MO
// itself. It is a smoke check that the eval seam stays on the compiled
// path.
func TestRollUpRowsEvalAllocationProfile(t *testing.T) {
	obj, env := syncTestObj(t, 32)
	s := syncTestSpec(t, env)
	cs, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.InsertMO(obj.MO); err != nil {
		t.Fatal(err)
	}
	eval := cs.newCellEval(cs.sp, caltime.Date(2000, 9, 1))
	if eval.router == nil {
		t.Fatal("default cell evaluator is not on the compiled path")
	}
	mo := mdm.NewMO(cs.env.Schema)
	scanned, err := cs.rollUpRows(cs.cubes[0], &eval, mo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if scanned == 0 {
		t.Fatal("the stale read scanned no rows")
	}
	if eval.probes == 0 {
		t.Fatal("the stale read did not count router probes")
	}
}

// TestCombineAllocations pins the cross-cube combine's cost on the
// query that leans on it hardest: a fine target that two cubes answer
// with hundreds of cells between them. Merged by cell key, the combine
// allocates the result's columns and its key map as they grow and the
// names in one string — nothing per fact — and the whole query takes
// about eight allocations per result cell, all in the per-cube select and
// fold; copying each subresult fact into a union MO and aggregating that
// once more cost fourteen more.
func TestCombineAllocations(t *testing.T) {
	obj, env := syncTestObj(t, 33)
	cs, err := New(syncTestSpec(t, env))
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.InsertMO(obj.MO); err != nil {
		t.Fatal(err)
	}
	at := caltime.Date(2000, 5, 20)
	if _, err := cs.Sync(at); err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(`aggregate [Time.day, URL.url]`, env)
	subs, _, err := cs.evaluateCubes(q, at, nil)
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, sub := range subs {
		if sub != nil && sub.Len() > 0 {
			live++
		}
	}
	if live != 2 {
		t.Fatalf("%d live cubes, want 2", live)
	}
	var out *mdm.MO
	allocs := testing.AllocsPerRun(5, func() {
		if out, err = cs.Evaluate(q, at); err != nil {
			t.Fatal(err)
		}
	})
	perCell := allocs / float64(out.Len())
	t.Logf("%.0f allocations for %d result cells: %.1f per cell", allocs, out.Len(), perCell)
	if perCell > 12 {
		t.Fatalf("a two-cube fine-target query allocated %.1f times per result cell, want at most 12", perCell)
	}
}

// TestStaleQueryAllocations pins that a stale cube set selects as
// cheaply as a synchronized one: on TestCombineAllocations' fixture, a
// predicated query 21 days after the last sync allocates at most 1.1×
// what it allocates at the sync, under the conservative and the weighted
// approach. Each cell of a stale cube's rolled-up rows is selected as it
// first appears, and the weights scale the part in place; building the
// whole part, copying the selected cells out of it and copying them again
// to scale them cost about 1.4×.
func TestStaleQueryAllocations(t *testing.T) {
	obj, env := syncTestObj(t, 33)
	at := caltime.Date(2000, 5, 20)
	allocsAt := func(last caltime.Day, sel query.Approach) float64 {
		cs, err := New(syncTestSpec(t, env))
		if err != nil {
			t.Fatal(err)
		}
		if err := cs.InsertMO(obj.MO); err != nil {
			t.Fatal(err)
		}
		if _, err := cs.Sync(last); err != nil {
			t.Fatal(err)
		}
		q := MustParseQuery(`aggregate [Time.month, URL.domain] where Time.day >= 2000/2/10`, env)
		q.Sel = sel
		return testing.AllocsPerRun(5, func() {
			if _, err := cs.Evaluate(q, at); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, sel := range []query.Approach{query.Conservative, query.Weighted} {
		synced, stale := allocsAt(at, sel), allocsAt(at-21, sel)
		t.Logf("%v: %.0f allocations synchronized, %.0f stale", sel, synced, stale)
		if stale > 1.1*synced {
			t.Errorf("%v: a stale query allocated %.0f times, %.2f× the synchronized %.0f; want at most 1.1×", sel, stale, stale/synced, synced)
		}
	}
}

// TestParseQueryAllocations pins the query front end on a dashboard
// shape: the parser pulls tokens that are substrings of the source, and
// the target references resolve as (dimension, category) pairs, so a
// predicate-free query costs its target list and its granularity.
// Rendering "Dim.cat" strings to split them again, a token slice and a
// string per punctuation byte cost seventeen.
func TestParseQueryAllocations(t *testing.T) {
	_, env := syncTestObj(t, 31)
	const src = `aggregate [Time.quarter, URL.domain_grp]`
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseQuery(src, env); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("parsing %q allocated %.0f times, want at most 2", src, allocs)
	}
}

// TestInsertAllocationFree pins the whole Insert call, not only the
// merge under it: lifting the measures into the aggregate domain uses a
// stack buffer, so a fact whose cell is resident costs no allocation.
// InsertMO reads every fact into one pair of scratch rows, so re-inserting
// a resident MO costs a few allocations, not two per fact.
func TestInsertAllocationFree(t *testing.T) {
	obj, env := syncTestObj(t, 31)
	cs, err := New(syncTestSpec(t, env))
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.InsertMO(obj.MO); err != nil {
		t.Fatal(err)
	}
	refs := obj.MO.Refs(0)
	meas := obj.MO.Measures(0)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := cs.Insert(refs, meas); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Insert into a resident cell allocated %.1f times per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(5, func() {
		if err := cs.InsertMO(obj.MO); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("re-inserting %d resident facts allocated %.0f times per run, want at most 8", obj.MO.Len(), allocs)
	}
}

// TestDeltaSyncAllocations pins what a delta-only Sync costs beside its
// probes: with one cube to scan and nothing to move it runs on the
// caller's goroutine and looks destinations up in the layout's own table,
// so 64 rows past the mark cost a handful of scratch allocations — no
// goroutine, no WaitGroup, no per-call map.
func TestDeltaSyncAllocations(t *testing.T) {
	pool := newLockstepPool(t)
	s, err := spec.New(pool.env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, pool.env),
		spec.MustCompileString("q", `aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`, pool.env))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	now := caltime.Date(2002, 6, 20)
	for d := caltime.Date(2001, 1, 1); d < now-1; d++ {
		refs, meas := pool.fact(rng, d, -1)
		if err := cs.Insert(refs, meas); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cs.Sync(now); err != nil {
		t.Fatal(err)
	}
	// 64 new cells of the last two days: 64 rows past the mark, none moves.
	for u := 0; u < 64; u++ {
		refs, meas := pool.fact(rng, now-caltime.Day(u%2), u)
		if err := cs.Insert(refs, meas); err != nil {
			t.Fatal(err)
		}
	}
	if n := cs.cubes[0].store.Rows() - cs.syncedRows; n != 64 {
		t.Fatalf("%d rows past the mark, want 64", n)
	}
	// AllocsPerRun warms up on one run and measures the next: a clone each.
	sets := []*CubeSet{cs.Clone(), cs.Clone()}
	incremental := cs.met.SyncsIncremental.Load()
	allocs := testing.AllocsPerRun(1, func() {
		if moved, err := sets[0].Sync(now); err != nil || moved != 0 {
			t.Fatalf("Sync moved %d rows, err %v", moved, err)
		}
		sets = sets[1:]
	})
	if got := cs.met.SyncsIncremental.Load() - incremental; got != 2 {
		t.Fatalf("%d of the 2 syncs were delta-only", got)
	}
	if allocs > 6 {
		t.Fatalf("a delta-only Sync of 64 rows past the mark allocated %.0f times, want at most 6", allocs)
	}
	t.Logf("delta-only Sync of 64 rows past the mark: %.0f allocations", allocs)
}
