package warehouse

import (
	"fmt"
	"reflect"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/prover"
	"dimred/internal/spec"
	"dimred/internal/storage"
	"dimred/internal/subcube"
	"dimred/internal/workload"
)

// walked is what one walk of a value saw: its leaves in order, and the
// memory it entered.
type walked struct {
	leaves []walkedLeaf
	mem    []walkedMem
}

type walkedLeaf struct {
	path, tok string
	reset     bool
}

type walkedMem struct {
	path   string
	lo, hi uintptr
}

// walkAll walks x with paths on; nonzero collects, per struct field
// reached, whether any instance had it non-zero.
func walkAll(x any, nonzero map[fieldKey]bool) walked {
	var out walked
	r := reach{
		paths: true,
		leaf: func(path string, reset bool, tok string) {
			out.leaves = append(out.leaves, walkedLeaf{path, tok, reset})
		},
		mem: func(path string, lo, hi uintptr) { out.mem = append(out.mem, walkedMem{path, lo, hi}) },
		field: func(k fieldKey, nz bool) {
			nonzero[k] = nonzero[k] || nz
		},
	}
	r.walk(reflect.ValueOf(x))
	return out
}

// checkClone reports where clone differs in value from orig, outside the
// fields Clone resets, and where it shares memory with orig, outside the
// shared fields.
func checkClone(t *testing.T, name string, orig, clone any, nonzero map[fieldKey]bool) {
	t.Helper()
	o, c := walkAll(orig, nonzero), walkAll(clone, map[fieldKey]bool{})
	kept := func(ls []walkedLeaf) []walkedLeaf {
		var out []walkedLeaf
		for _, l := range ls {
			if !l.reset {
				out = append(out, l)
			}
		}
		return out
	}
	ol, cl := kept(o.leaves), kept(c.leaves)
	for i := range max(len(ol), len(cl)) {
		if i >= len(ol) || i >= len(cl) || ol[i] != cl[i] {
			at := func(ls []walkedLeaf) string {
				if i < len(ls) {
					return fmt.Sprintf("%s = %s", ls[i].path, ls[i].tok)
				}
				return "(end)"
			}
			t.Errorf("%s: the clone differs from the original: original %s, clone %s", name, at(ol), at(cl))
			break
		}
	}
	for _, cm := range c.mem {
		for _, om := range o.mem {
			if cm.lo < om.hi && om.lo < cm.hi {
				t.Errorf("%s: the clone's %s shares memory with the original's %s", name, cm.path, om.path)
			}
		}
	}
}

// cloneFixture builds a cube set that sets every field its Clone must
// carry: populated cubes at four granularities, one with its time
// aggregated to TOP, a deletion that removed facts, a layout rebuilt by a
// specification change, journals that gave up, rows pending since the
// last synchronization, and the interpreted evaluator selected.
func cloneFixture(t *testing.T) *subcube.CubeSet {
	t.Helper()
	obj, err := workload.NewClickSchema()
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spec.New(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env),
		spec.MustCompileString("top", `aggregate [Time.TOP, URL.domain] where URL.domain = "site0.com"`, env),
		spec.MustCompileString("purge", `delete where Time.year <= NOW - 6 years`, env))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := subcube.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	insert := func(n int, start caltime.Day) {
		t.Helper()
		refs, meas := stressRows(t, obj, n, start)
		for i := range refs {
			if err := cs.Insert(refs[i], meas[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	sync := func(at caltime.Day) {
		t.Helper()
		if _, err := cs.Sync(at); err != nil {
			t.Fatal(err)
		}
	}
	insert(20, caltime.Date(1996, 1, 1))  // purged
	insert(40, caltime.Date(2000, 1, 1))  // to TOP
	insert(120, caltime.Date(2003, 1, 1)) // months and days
	sync(caltime.Date(2003, 5, 15))
	// From here on every store journals what the writes below change.
	cs = cs.Clone()
	grown := cs.Spec().Clone()
	if err := grown.Insert(spec.MustCompileString("q", `aggregate [Time.quarter, URL.domain] where Time.quarter <= NOW - 4 quarters`, env)); err != nil {
		t.Fatal(err)
	}
	if err := cs.ApplySpec(grown, caltime.Date(2003, 5, 15)); err != nil {
		t.Fatal(err)
	}
	insert(30, caltime.Date(2003, 4, 20))
	sync(caltime.Date(2003, 8, 15))
	insert(3, caltime.Date(2003, 8, 14))
	cs.SetInterpreted(true)
	return cs
}

// TestClonesAreDeepAndDisjoint is the gate of the clone rule: a Clone
// copies every field. On fixtures that set every field the walk reaches,
// each clone must equal its original in value, except in the fields
// Clone resets (resetFields), and must share no pointee, backing array
// or map with it, except through the fields and targets it shares by
// design (sharedFields, sharedTargets). A field no fixture sets fails the
// test until one does, so a field added later cannot slip past Clone
// unchecked.
func TestClonesAreDeepAndDisjoint(t *testing.T) {
	nonzero := map[fieldKey]bool{}

	cs := cloneFixture(t)
	checkClone(t, "CubeSet.Clone", cs, cs.Clone(), nonzero)
	checkClone(t, "Spec.Clone", cs.Spec(), cs.Spec().Clone(), nonzero)

	st := storage.New(storage.Layout{DimCols: 2, MeasCols: 1})
	for i := range 8 {
		if _, err := st.Append([]mdm.ValueID{mdm.ValueID(i), 1}, []float64{float64(i)}, 2); err != nil {
			t.Fatal(err)
		}
	}
	st = st.Clone()
	st.Delete(3)
	st.SetMeasure(5, 0, -1)
	checkClone(t, "Store.Clone", st, st.Clone(), nonzero)

	cells := mdm.NewCellMap[storage.RowID](2)
	cells.Put([]mdm.ValueID{1, 2}, 3)
	cells.Put([]mdm.ValueID{-1, 2}, 4) // a negative value does not pack
	checkClone(t, "CellMap.Clone", cells, cells.Clone(), nonzero)

	mo, err := materialize(cs.Spec().Env(), cs)
	if err != nil {
		t.Fatal(err)
	}
	mo.SetName(0, "fact_01")
	borrowed := mo.Borrow()
	checkClone(t, "MO.Clone", borrowed, borrowed.Clone(), nonzero)

	set := prover.NewSet(130)
	set.Add(3)
	set.Add(129)
	checkClone(t, "prover.Set.Clone", set, set.Clone(), nonzero)

	for k, nz := range nonzero {
		if !nz {
			t.Errorf("no fixture sets %s: give it a non-zero value, so that its Clone is checked", k)
		}
	}
}
