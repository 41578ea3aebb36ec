package subcube

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/core"
	"dimred/internal/mdm"
	"dimred/internal/spec"
	"dimred/internal/storage"
	"dimred/internal/workload"
)

// syncTestSpec is the click spec the parallel-apply tests run under:
// two aggregation stages plus a deletion action, so synchronization
// exercises cube→cube migration chains and the delete path.
func syncTestSpec(t testing.TB, env *spec.Env) *spec.Spec {
	t.Helper()
	s, err := spec.New(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env),
		spec.MustCompileString("q", `aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`, env),
		spec.MustCompileString("del", `delete where Time.year <= NOW - 2 years`, env))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func syncTestObj(t testing.TB, seed int64) (*workload.ClickObject, *spec.Env) {
	t.Helper()
	obj, err := workload.BuildClickMO(workload.ClickConfig{
		Seed: seed, Start: caltime.Date(2000, 1, 1), Days: 150,
		ClicksPerDay: 8, Domains: 12, URLsPerDomain: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	return obj, env
}

// dumpCubes renders every live row of every cube. With canonical set,
// rows are sorted within each cube so dumps compare physical contents
// independent of row order; without it the dump also pins the physical
// row order.
func dumpCubes(cs *CubeSet, canonical bool) string {
	schema := cs.env.Schema
	var all []string
	for _, c := range cs.cubes {
		refs := make([]mdm.ValueID, schema.NumDims())
		var rows []string
		c.store.Scan(func(r storage.RowID) bool {
			c.store.Refs(r, refs)
			var b strings.Builder
			fmt.Fprintf(&b, "K%d|%v|", c.id, refs)
			for j := range schema.Measures {
				fmt.Fprintf(&b, "%g,", c.store.Measure(r, j))
			}
			fmt.Fprintf(&b, "|%d", c.store.Base(r))
			rows = append(rows, b.String())
			return true
		})
		if canonical {
			sort.Strings(rows)
		}
		all = append(all, rows...)
	}
	return strings.Join(all, "\n")
}

// setCells renders the cells of every cube's live rows as one MO's
// DumpCells, comparable with a reduced MO's.
func setCells(t *testing.T, cs *CubeSet) string {
	t.Helper()
	mo := mdm.NewMO(cs.env.Schema)
	for _, c := range cs.cubes {
		if _, err := c.AppendTo(mo, nil); err != nil {
			t.Fatal(err)
		}
	}
	return mo.DumpCells()
}

// syncDays is the evaluation-day ladder the determinism tests sync
// through: it drives rows bottom→month, month→quarter, and finally
// into the deletion window.
var syncDays = []caltime.Day{
	caltime.Date(2000, 4, 1),
	caltime.Date(2000, 9, 1),
	caltime.Date(2001, 6, 1),
	caltime.Date(2002, 8, 1),
}

// TestSyncCompiledMatchesInterpreted: Sync under the compiled router and
// under the interpreted evaluator must produce identical cube contents,
// migration counts and deletion totals through a whole ladder of
// synchronization days — and, since both share one apply, both must hold
// exactly the cells of the Definition 2 oracle, core.ReduceInterpreted of
// the inserted facts at that day.
func TestSyncCompiledMatchesInterpreted(t *testing.T) {
	obj, env := syncTestObj(t, 21)
	s := syncTestSpec(t, env)

	compiled, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	interpreted, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	interpreted.SetInterpreted(true)
	if err := compiled.InsertMO(obj.MO); err != nil {
		t.Fatal(err)
	}
	if err := interpreted.InsertMO(obj.MO); err != nil {
		t.Fatal(err)
	}

	for _, at := range syncDays {
		mc, err := compiled.Sync(at)
		if err != nil {
			t.Fatal(err)
		}
		mi, err := interpreted.Sync(at)
		if err != nil {
			t.Fatal(err)
		}
		if mc != mi {
			t.Fatalf("sync at %v: compiled moved %d rows, interpreted %d", at, mc, mi)
		}
		if got, want := dumpCubes(compiled, true), dumpCubes(interpreted, true); got != want {
			t.Fatalf("sync at %v: cube contents diverge\ncompiled:\n%s\ninterpreted:\n%s", at, got, want)
		}
		if compiled.DeletedFacts() != interpreted.DeletedFacts() {
			t.Fatalf("sync at %v: compiled deleted %d facts, interpreted %d",
				at, compiled.DeletedFacts(), interpreted.DeletedFacts())
		}
		red, err := core.ReduceInterpreted(s, obj.MO, at)
		if err != nil {
			t.Fatal(err)
		}
		want := red.MO.DumpCells()
		for name, cs := range map[string]*CubeSet{"compiled": compiled, "interpreted": interpreted} {
			if got := setCells(t, cs); got != want {
				t.Fatalf("sync at %v: the %s set diverged from the Definition 2 oracle\n%s:\n%s\noracle:\n%s", at, name, name, got, want)
			}
		}
	}
	if compiled.DeletedFacts() == 0 {
		t.Fatal("deletion window never fired; the ladder is too short to exercise the delete path")
	}
}

// TestSyncShuffledInsertDeterminism: inserting the same facts in a
// shuffled order must leave the same cube contents after the compiled
// parallel Sync — the Group_high fold and the sharded apply phase may
// not depend on arrival order.
func TestSyncShuffledInsertDeterminism(t *testing.T) {
	obj, env := syncTestObj(t, 22)
	s := syncTestSpec(t, env)

	n := obj.MO.Len()
	perm := rand.New(rand.NewSource(5)).Perm(n)

	ordered, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	shuffled, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < n; f++ {
		if err := ordered.Insert(obj.MO.Refs(mdm.FactID(f)), obj.MO.Measures(mdm.FactID(f))); err != nil {
			t.Fatal(err)
		}
		g := mdm.FactID(perm[f])
		if err := shuffled.Insert(obj.MO.Refs(g), obj.MO.Measures(g)); err != nil {
			t.Fatal(err)
		}
	}
	for _, at := range syncDays {
		if _, err := ordered.Sync(at); err != nil {
			t.Fatal(err)
		}
		if _, err := shuffled.Sync(at); err != nil {
			t.Fatal(err)
		}
		if got, want := dumpCubes(shuffled, true), dumpCubes(ordered, true); got != want {
			t.Fatalf("sync at %v: shuffled insert order changed cube contents", at)
		}
	}
}

// TestSyncGOMAXPROCSDeterminism: the parallel apply phase must be
// schedule-independent — syncing identical cube sets under
// GOMAXPROCS=1 and GOMAXPROCS=4 produces byte-identical dumps
// including physical row order.
func TestSyncGOMAXPROCSDeterminism(t *testing.T) {
	obj, env := syncTestObj(t, 23)
	s := syncTestSpec(t, env)

	dumps := make([]string, 2)
	for i, procs := range []int{1, 4} {
		cs, err := New(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := cs.InsertMO(obj.MO); err != nil {
			t.Fatal(err)
		}
		prev := runtime.GOMAXPROCS(procs)
		for _, at := range syncDays {
			if _, err := cs.Sync(at); err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatal(err)
			}
		}
		runtime.GOMAXPROCS(prev)
		dumps[i] = dumpCubes(cs, false)
	}
	if dumps[0] != dumps[1] {
		t.Fatal("cube contents depend on GOMAXPROCS")
	}
}

// TestSyncProgramCounters: a compiled sync compiles exactly one
// program per round and publishes its per-row probes; the interpreted
// evaluator touches neither counter and never takes the delta path.
func TestSyncProgramCounters(t *testing.T) {
	obj, env := syncTestObj(t, 24)
	// A plain (non-time) URL restriction gives the program a static
	// bitset mask, so the byte gauge is exercised too; time-only specs
	// legitimately report zero compile-time bitset bytes.
	s, err := spec.New(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where URL.domain_grp = ".com" and Time.month <= NOW - 2 months`, env),
		spec.MustCompileString("del", `delete where Time.year <= NOW - 2 years`, env))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.InsertMO(obj.MO); err != nil {
		t.Fatal(err)
	}

	before := cs.Metrics().Snapshot()
	if _, err := cs.Sync(caltime.Date(2000, 9, 1)); err != nil {
		t.Fatal(err)
	}
	delta := cs.Metrics().Snapshot().Sub(before)
	if delta.ProgramCacheMisses != 1 {
		t.Fatalf("compiled sync: ProgramCacheMisses = %d, want 1", delta.ProgramCacheMisses)
	}
	if delta.ProgramProbes == 0 {
		t.Fatal("compiled sync: ProgramProbes = 0, want > 0")
	}
	if delta.BitsetBytes <= 0 {
		t.Fatalf("compiled sync: BitsetBytes = %d, want > 0", delta.BitsetBytes)
	}

	cs.SetInterpreted(true)
	before = cs.Metrics().Snapshot()
	if _, err := cs.Sync(caltime.Date(2000, 10, 1)); err != nil {
		t.Fatal(err)
	}
	delta = cs.Metrics().Snapshot().Sub(before)
	if delta.ProgramCacheMisses != 0 || delta.ProgramProbes != 0 {
		t.Fatalf("interpreted sync bumped program counters: compiles=%d probes=%d",
			delta.ProgramCacheMisses, delta.ProgramProbes)
	}

	// A same-day sync on a tracking set is the compiled path's delta case;
	// the interpreted evaluator has no router to vouch for it and scans in
	// full.
	if !cs.tracking {
		t.Fatal("a completed Sync left the set untracked")
	}
	before = cs.Metrics().Snapshot()
	if _, err := cs.Sync(caltime.Date(2000, 10, 1)); err != nil {
		t.Fatal(err)
	}
	delta = cs.Metrics().Snapshot().Sub(before)
	if delta.SyncsIncremental != 0 || delta.SyncScanned == 0 {
		t.Fatalf("interpreted same-day sync: incremental=%d scanned=%d, want a full scan", delta.SyncsIncremental, delta.SyncScanned)
	}
}
