package subcube

import (
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
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
	if err := cs.mergeInto(bottom, refs, meas, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := cs.mergeInto(bottom, refs, meas, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("mergeInto on a resident cell allocated %.1f times per run, want 0", allocs)
	}
}

// TestCellIndexPackedRouting: with two dimensions every in-range cell
// must take the packed uint64 map, never the string fallback; negative
// values (mdm.NoValue) must fall back rather than alias a packed key.
func TestCellIndexPackedRouting(t *testing.T) {
	ix := newCellIndex(2)
	if ix.width == 0 {
		t.Fatal("two-dimension index did not enable packing")
	}
	ix.put([]mdm.ValueID{3, 4}, 7)
	if r, ok := ix.get([]mdm.ValueID{3, 4}); !ok || r != 7 {
		t.Fatalf("get = %v, %v; want 7, true", r, ok)
	}
	if len(ix.str) != 0 {
		t.Fatal("in-range cell landed in the string fallback map")
	}
	ix.put([]mdm.ValueID{mdm.NoValue, 4}, 9)
	if len(ix.str) != 1 {
		t.Fatal("negative value did not take the string fallback")
	}
	if r, ok := ix.get([]mdm.ValueID{mdm.NoValue, 4}); !ok || r != 9 {
		t.Fatalf("fallback get = %v, %v; want 9, true", r, ok)
	}
	ix.del([]mdm.ValueID{3, 4})
	if _, ok := ix.get([]mdm.ValueID{3, 4}); ok {
		t.Fatal("deleted packed cell still resolves")
	}
}

// TestViewOfEvalAllocationProfile guards the hoisted scratch in the
// unsynchronized query view: building a cube view probes the compiled
// router without per-row allocations beyond the view MO itself. It is
// a smoke check that the eval seam stays on the compiled path.
func TestViewOfEvalAllocationProfile(t *testing.T) {
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
	mo, scanned, err := cs.viewOf(cs.cubes[0], &eval)
	if err != nil {
		t.Fatal(err)
	}
	if scanned == 0 || mo == nil {
		t.Fatalf("view scanned %d rows", scanned)
	}
	if eval.probes == 0 {
		t.Fatal("view did not count router probes")
	}
}
