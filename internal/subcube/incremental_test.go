package subcube

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/obs"
	"dimred/internal/spec"
	"dimred/internal/storage"
	"dimred/internal/workload"
)

// lockstepPool resolves every dimension value the lock-step test can
// draw before any program is compiled, so the compiled sets keep a
// complete bitset domain and the incremental path actually runs.
type lockstepPool struct {
	obj   *workload.ClickObject
	env   *spec.Env
	first caltime.Day
	days  []mdm.ValueID
	urls  []mdm.ValueID
}

func newLockstepPool(t *testing.T) *lockstepPool {
	t.Helper()
	obj, err := workload.NewClickSchema()
	if err != nil {
		t.Fatal(err)
	}
	p := &lockstepPool{obj: obj, first: caltime.Date(2000, 1, 1)}
	for d := p.first; d <= caltime.Date(2004, 12, 31); d++ {
		p.days = append(p.days, obj.Time.EnsureDay(d))
	}
	for i, grp := range []string{"com", "com", "edu", "org", "edu", "com"} {
		for page := 0; page < 12; page++ {
			u, err := obj.URL.EnsureURL(fmt.Sprintf("http://www.site%d.%s/page/%d", i, grp, page))
			if err != nil {
				t.Fatal(err)
			}
			p.urls = append(p.urls, u)
		}
	}
	p.env, err = spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fact draws a click on the given day; u < 0 draws the URL too.
func (p *lockstepPool) fact(rng *rand.Rand, d caltime.Day, u int) ([]mdm.ValueID, []float64) {
	if u < 0 {
		u = rng.Intn(len(p.urls))
	}
	refs := []mdm.ValueID{p.days[d-p.first], p.urls[u]}
	return refs, []float64{1, float64(rng.Intn(90)), float64(rng.Intn(9)), float64(rng.Intn(50))}
}

// dumpCells renders a cube set the way the lock-step test compares it:
// per cube the live and tombstoned row counts and the cells (DumpCells
// of the cube's MO), then the deleted-fact total.
func dumpCells(t *testing.T, cs *CubeSet) string {
	t.Helper()
	var b strings.Builder
	for _, c := range cs.Cubes() {
		mo, err := c.MO(cs.env.Schema)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "K%d rows=%d dead=%d\n%s", c.ID(), c.Rows(), c.Dead(), mo.DumpCells())
	}
	fmt.Fprintf(&b, "deleted=%d\n", cs.DeletedFacts())
	return b.String()
}

// checkCubes fails unless every cube's cell index maps exactly its live
// rows' cells to those rows, and its zone map covers the days of every
// live row. Sets run through the same operations share any apply bug,
// so comparing them with each other cannot see one.
func checkCubes(t *testing.T, step string, cs *CubeSet) {
	t.Helper()
	schema := cs.env.Schema
	td := schema.Dims[cs.env.TimeDim]
	cell := make([]mdm.ValueID, schema.NumDims())
	for _, c := range cs.cubes {
		live := 0
		lo, hi, ok := c.DayRange()
		c.store.Scan(func(r storage.RowID) bool {
			live++
			c.store.Refs(r, cell)
			if got, in := c.index.Get(cell); !in || got != r {
				t.Fatalf("%s: K%d row %d %v is indexed at %d (%v)", step, c.id, r, cell, got, in)
			}
			v := cell[cs.env.TimeDim]
			if u, bound := cs.env.Time.UnitForCategory(td.CategoryOf(v)); bound {
				p := caltime.Period{Unit: u, Index: td.ValueOrd(v)}
				if !ok || p.First() < lo || p.Last() > hi {
					t.Fatalf("%s: K%d row %d %v lies outside the zone map %v..%v (%v)", step, c.id, r, cell, lo, hi, ok)
				}
			}
			return true
		})
		if c.index.Len() != live {
			t.Fatalf("%s: K%d indexes %d cells for %d live rows", step, c.id, c.index.Len(), live)
		}
	}
}

// restored rebuilds a cube set the way a snapshot load does: a fresh
// layout, every stored row re-injected, then the sync bookkeeping.
func restored(t *testing.T, cs *CubeSet) *CubeSet {
	t.Helper()
	next, err := New(cs.Spec())
	if err != nil {
		t.Fatal(err)
	}
	next.SetInterpreted(cs.interpret)
	schema := cs.env.Schema
	refs := make([]mdm.ValueID, schema.NumDims())
	meas := make([]float64, len(schema.Measures))
	for _, c := range cs.Cubes() {
		c.store.Scan(func(r storage.RowID) bool {
			c.store.Refs(r, refs)
			for j := range meas {
				meas[j] = c.store.Measure(r, j)
			}
			if err := next.RestoreRow(refs, meas, c.store.Base(r)); err != nil {
				t.Fatal(err)
			}
			return true
		})
	}
	last, synced := cs.LastSync()
	next.RestoreSyncState(last, synced, cs.DeletedFacts())
	return next
}

// TestLockstepIncrementalVsInterpreted drives a seeded random
// interleaving of every operation that touches the row mark and its
// tracking over three cube sets in lock-step: the compiled set
// (incremental where it may be), the interpreted oracle (always a full
// scan), and a compiled set whose tracking is dropped before every Sync
// (always a full scan). After every step each set passes checkCubes, the
// first two agree on cells, live and dead rows per cube and deleted
// facts, and the first and third are byte-identical down to physical row
// order.
func TestLockstepIncrementalVsInterpreted(t *testing.T) {
	for _, tc := range []struct {
		name    string
		actions []string
		// someDelta: the spec's NOW bounds are month-unit or coarser, so
		// same-month synchronizations must take the incremental path.
		monthUnit bool
	}{
		{"month-quarter-delete", []string{
			`aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`,
			`aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`,
			`delete where Time.year <= NOW - 2 years`,
		}, true},
		{"day-unit-bound", []string{
			`aggregate [Time.day, URL.domain] where Time.day <= NOW - 30 days`,
			`aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`,
		}, false},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				lockstep(t, tc.actions, seed, tc.monthUnit)
			})
		}
	}
}

func lockstep(t *testing.T, actions []string, seed int64, monthUnit bool) {
	pool := newLockstepPool(t)
	env := pool.env
	yearly := spec.MustCompileString("y", `aggregate [Time.year, URL.domain_grp] where Time.year <= NOW - 1 year`, env)

	// sets[0] incremental, sets[1] interpreted, sets[2] compiled full.
	var sets [3]*CubeSet
	for i := range sets {
		var as []*spec.Action
		for k, src := range actions {
			as = append(as, spec.MustCompileString(fmt.Sprintf("a%d", k), src, env))
		}
		s, err := spec.New(env, as...)
		if err != nil {
			t.Fatal(err)
		}
		if sets[i], err = New(s); err != nil {
			t.Fatal(err)
		}
	}
	sets[1].SetInterpreted(true)

	rng := rand.New(rand.NewSource(seed))
	now := caltime.Date(2002, 2, 10)
	insertAt := func(d caltime.Day, u int) {
		refs, meas := pool.fact(rng, d, u)
		for _, cs := range sets {
			if err := cs.Insert(refs, meas); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert := func(d caltime.Day) { insertAt(d, -1) }
	late := func(n int) {
		for k := 0; k < n; k++ {
			insert(now - caltime.Day(40+rng.Intn(500)))
		}
	}
	// sync synchronizes all three sets at now and pins which path the
	// first took: delta-only exactly when it was tracking and the router
	// at now gives the last sync's verdicts — any day of the same month
	// under month-unit bounds, the same day only under a day-unit bound.
	deltas := 0
	sync := func() {
		last, _ := sets[0].LastSync()
		ly, lm, _ := last.Civil()
		y, m, _ := now.Civil()
		want := sets[0].tracking && (now == last || (monthUnit && ly == y && lm == m))
		before := sets[0].met.SyncsIncremental.Load()
		sets[2].tracking = false
		var moved [3]int
		for i, cs := range sets {
			n, err := cs.Sync(now)
			if err != nil {
				t.Fatal(err)
			}
			moved[i] = n
		}
		if moved[0] != moved[1] || moved[0] != moved[2] {
			t.Fatalf("sync at %v moved %v rows", now, moved)
		}
		got := sets[0].met.SyncsIncremental.Load() > before
		if got != want {
			t.Fatalf("sync at %v (last %v, tracking %v): delta-only = %v, want %v", now, last, want || got, got, want)
		}
		if got {
			deltas++
		}
	}
	check := func(step string) {
		t.Helper()
		for _, cs := range sets {
			checkCubes(t, step, cs)
		}
		got := dumpCells(t, sets[0])
		if want := dumpCells(t, sets[1]); got != want {
			t.Fatalf("%s (clock %v): compiled diverged from the interpreted oracle\ncompiled:\n%s\ninterpreted:\n%s", step, now, got, want)
		}
		if dumpCubes(sets[0], false) != dumpCubes(sets[2], false) {
			t.Fatalf("%s (clock %v): incremental and full compiled paths differ physically\nincremental:\n%s\nfull:\n%s",
				step, now, dumpCubes(sets[0], false), dumpCubes(sets[2], false))
		}
	}

	// A history reaching back past every horizon, then the first sync.
	for d := caltime.Date(2000, 1, 1); d < now; d += caltime.Day(1 + rng.Intn(3)) {
		insert(d)
	}
	sync()
	check("initial load")

	// The pool's calendar ends with 2004: no boundary jumps in its last year.
	lastJump := caltime.Date(2004, 1, 1)
	for step := 0; step < 120; step++ {
		var name string
		op := rng.Intn(17)
		if (op == 11 || op == 12) && now >= lastJump {
			op = 8
		}
		switch {
		case op < 3:
			name = "insert on-time"
			for k := rng.Intn(6); k >= 0; k-- {
				insert(now - caltime.Day(rng.Intn(20)))
			}
		case op < 5:
			name = "insert late"
			late(1 + rng.Intn(4))
		case op < 6:
			name = "insert deletion-selected"
			insert(caltime.Date(2000, 1, 1) + caltime.Day(rng.Intn(300)))
		case op < 9:
			name = "sync same day"
			sync()
		case op < 11:
			name = "sync next day"
			now++
			sync()
		case op < 12:
			name = "sync month boundary"
			y, m, _ := now.Civil()
			now = caltime.Date(y, m+1, 1)
			sync()
		case op < 13:
			name = "sync quarter boundary"
			y, m, _ := now.Civil()
			now = caltime.Date(y, m-(m-1)%3+3, 1)
			sync()
		case op < 14:
			name = "clone then diverge"
			refs, meas := pool.fact(rng, now, -1)
			for i, cs := range sets {
				sets[i] = cs.Clone()
				// The abandoned original moves on; the clone must not.
				if err := cs.Insert(refs, meas); err != nil {
					t.Fatal(err)
				}
				if _, err := cs.Sync(now + 400); err != nil {
					t.Fatal(err)
				}
			}
		case op < 15:
			name = "apply spec"
			for _, cs := range sets {
				sp := cs.Spec()
				if _, has := sp.ActionByName("y"); !has {
					if err := sp.Insert(yearly); err != nil {
						t.Fatal(err)
					}
				}
				if err := cs.ApplySpec(sp, now); err != nil {
					t.Fatal(err)
				}
			}
		case op < 16:
			name = "snapshot restore"
			for i, cs := range sets {
				sets[i] = restored(t, cs)
			}
		default:
			// A partial row for a cell deep inside the reduced region,
			// restored at the bottom of a synchronized set: no Insert
			// listed it, yet the next Sync must move it.
			name = "restore row in place"
			refs, meas := pool.fact(rng, now-caltime.Day(100+rng.Intn(200)), -1)
			for _, cs := range sets {
				if err := cs.RestoreRow(refs, meas, 3); err != nil {
					t.Fatal(err)
				}
			}
		}
		check(fmt.Sprintf("step %d: %s", step, name))

		// Once, three bursts, each synchronized on the same day: late facts
		// enough that their Sync compacts the bottom cube, a few late facts
		// more, which only the mark taken after that compaction finds, and
		// a long on-time burst, which stays delta-only.
		if step == 60 {
			sync()
			late(2*sets[0].cubes[0].Rows() + 65)
			rows := sets[0].cubes[0].store.Rows()
			sync()
			if sets[0].cubes[0].store.Rows() >= rows {
				t.Fatalf("the late burst's Sync left the bottom cube's %d rows uncompacted", rows)
			}
			check("late burst")
			late(5)
			sync()
			check("late facts after a compacting sync")
			for d := now - 24; d <= now; d++ {
				for u := range pool.urls {
					insertAt(d, u)
				}
			}
			if !sets[0].tracking {
				t.Fatal("a long burst stopped tracking")
			}
			sync()
			check("sync after the long burst")
		}
	}
	if deltas == 0 {
		t.Error("no synchronization took the incremental path")
	}
}

// TestSyncFullScanWhenDomainGrows: a dimension value added after the
// program was compiled sends its cells to the interpreted fallback,
// which the mask comparison cannot vouch for, so Sync scans in full —
// and a late fact carrying the new value still lands where the
// interpreted oracle puts it.
func TestSyncFullScanWhenDomainGrows(t *testing.T) {
	pool := newLockstepPool(t)
	env := pool.env
	var sets [2]*CubeSet
	for i := range sets {
		s, err := spec.New(env,
			spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env))
		if err != nil {
			t.Fatal(err)
		}
		if sets[i], err = New(s); err != nil {
			t.Fatal(err)
		}
	}
	sets[1].SetInterpreted(true)
	rng := rand.New(rand.NewSource(11))
	now := caltime.Date(2002, 6, 15)
	insert := func(refs []mdm.ValueID, meas []float64) {
		for _, cs := range sets {
			if err := cs.Insert(refs, meas); err != nil {
				t.Fatal(err)
			}
		}
	}
	sync := func() obs.MetricsSnapshot {
		before := sets[0].Metrics().Snapshot()
		for _, cs := range sets {
			if _, err := cs.Sync(now); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := dumpCells(t, sets[0]), dumpCells(t, sets[1]); got != want {
			t.Fatalf("compiled diverged from the interpreted oracle\ncompiled:\n%s\ninterpreted:\n%s", got, want)
		}
		return sets[0].Metrics().Snapshot().Sub(before)
	}
	for d := caltime.Date(2002, 1, 1); d <= now; d++ {
		insert(pool.fact(rng, d, -1))
	}
	sync()

	// Complete domain: a late fact costs one scanned row.
	insert(pool.fact(rng, now-100, -1))
	if d := sync(); d.SyncsIncremental != 1 || d.SyncScanned != 1 || d.RowsFolded != 1 {
		t.Fatalf("complete domain: incremental=%d scanned=%d folded=%d, want 1/1/1", d.SyncsIncremental, d.SyncScanned, d.RowsFolded)
	}

	// Grow the URL dimension, then send a late fact carrying the new value.
	u, err := pool.obj.URL.EnsureURL("http://www.latecomer.org/page/0")
	if err != nil {
		t.Fatal(err)
	}
	// The month cube stays zone-map-skipped (nothing raises its rows), so
	// the full scan is the whole bottom cube.
	live := sets[0].Cubes()[0].Rows()
	insert([]mdm.ValueID{pool.days[now-100-pool.first], u}, []float64{1, 2, 3, 4})
	d := sync()
	if d.SyncsIncremental != 0 || d.SyncScanned != int64(live+1) {
		t.Fatalf("grown domain: incremental=%d scanned=%d, want a full scan of %d rows", d.SyncsIncremental, d.SyncScanned, live+1)
	}
	if d.RowsFolded != 1 {
		t.Fatalf("grown domain: late fact with the new value folded %d rows, want 1", d.RowsFolded)
	}
}
