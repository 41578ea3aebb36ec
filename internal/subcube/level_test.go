package subcube

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/spec"
	"dimred/internal/storage"
)

// dumpPhysical renders everything two level cube sets must agree on: per
// cube the zone map, every row slot with its tombstone, and every
// cell-index entry; then the sync state, the row mark, the evaluation
// mode, the layout count and the action names.
func dumpPhysical(cs *CubeSet) string {
	var b strings.Builder
	nMeas := len(cs.env.Schema.Measures)
	for _, c := range cs.cubes {
		fmt.Fprintf(&b, "K%d gran=%v zone=%v..%v has=%v unbound=%v rows=%d dead=%d\n",
			c.id, c.gran, c.dayLo, c.dayHi, c.hasRange, c.timeUnbound, c.store.Rows(), c.store.Dead())
		for r := storage.RowID(0); int(r) < c.store.Rows(); r++ {
			fmt.Fprintf(&b, " %d %v", r, c.store.Refs(r, nil))
			for j := 0; j < nMeas; j++ {
				fmt.Fprintf(&b, " %g", c.store.Measure(r, j))
			}
			fmt.Fprintf(&b, " base=%d alive=%v\n", c.store.Base(r), c.store.Alive(r))
		}
		var entries []string
		for cell, r := range c.index.All() {
			entries = append(entries, fmt.Sprintf("%v=%d", cell, r))
		}
		sort.Strings(entries)
		fmt.Fprintf(&b, " index %v\n", entries)
	}
	fmt.Fprintf(&b, "lastSync=%v synced=%v deleted=%d syncedRows=%d tracking=%v interpret=%v layout=%d actions=",
		cs.lastSync, cs.synced, cs.deletedBase, cs.syncedRows, cs.tracking, cs.interpret, cs.layout)
	for _, a := range cs.sp.Actions() {
		b.WriteString(a.Name() + " ")
	}
	return b.String()
}

// TestLockstepLevelVsReexecution drives a seeded random interleaving of
// every operation a commit can carry over a left-right pair and an
// oracle. The pair alternates roles: each step one side is written and
// the other brought level with LevelFrom; the oracle applies every step
// itself, as both sides did when the second application levelled them.
// After every step all three are equal column by column, tombstone by
// tombstone, index entry by index entry, zone map and sync state.
func TestLockstepLevelVsReexecution(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { lockstepLevel(t, seed) })
	}
}

func lockstepLevel(t *testing.T, seed int64) {
	pool := newLockstepPool(t)
	env := pool.env
	yearly := spec.MustCompileString("y", `aggregate [Time.year, URL.domain_grp] where Time.year <= NOW - 1 year`, env)
	build := func() *CubeSet {
		s, err := spec.New(env,
			spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env),
			spec.MustCompileString("q", `aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`, env),
			spec.MustCompileString("d", `delete where Time.year <= NOW - 2 years`, env))
		if err != nil {
			t.Fatal(err)
		}
		cs, err := New(s)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	// written and level swap after every step; oracle re-executes.
	level := build()
	written := level.Clone()
	oracle := build()

	rng := rand.New(rand.NewSource(seed))
	now := caltime.Date(2002, 2, 10)
	type fact struct {
		refs []mdm.ValueID
		meas []float64
	}
	draw := func(d caltime.Day, u int) fact {
		refs, meas := pool.fact(rng, d, u)
		return fact{refs, meas}
	}
	insert := func(cs *CubeSet, facts []fact) {
		for _, f := range facts {
			if err := cs.Insert(f.refs, f.meas); err != nil {
				t.Fatal(err)
			}
		}
	}
	sync := func(cs *CubeSet) {
		if _, err := cs.Sync(now); err != nil {
			t.Fatal(err)
		}
	}
	// syncBound bounds the rows a same-day sync after n inserted facts may
	// level: each fact and each bottom row past the mark, even one inserted
	// before the step (an on-time fact turns late under an action inserted
	// after it), writes its bottom row and at most one destination row. A
	// set that is not tracking scans in full: unbounded.
	syncBound := func(n int) int {
		if !written.tracking {
			return -1
		}
		return 2 * (n + written.cubes[0].store.Rows() - written.syncedRows)
	}

	compactions := func() int64 { return written.met.Compactions.Load() + oracle.met.Compactions.Load() }
	var whole, wholeSide, deltas int
	// step applies op to the written side and the oracle, levels the other
	// side and compares all three. maxRows bounds the rows levelled (< 0:
	// unbounded).
	step := func(name string, maxRows int, op func(cs *CubeSet)) {
		t.Helper()
		compacted := compactions()
		op(written)
		op(oracle)
		gaveUp := false
		for _, c := range written.cubes {
			if _, _, ok := c.store.Journal(); !ok {
				gaveUp = true
			}
		}
		if gaveUp && compactions() == compacted {
			whole++ // a journal that overflowed, not one a compaction dropped
		}
		next, rows := level.LevelFrom(written)
		switch {
		case next != level:
			wholeSide++
		case !gaveUp:
			deltas++
			if maxRows >= 0 && rows > maxRows {
				t.Fatalf("%s (clock %v): levelled %d rows, want at most %d", name, now, rows, maxRows)
			}
		}
		level = next
		want := dumpPhysical(oracle)
		if got := dumpPhysical(written); got != want {
			t.Fatalf("%s (clock %v): the written side differs from the oracle\nwritten:\n%s\noracle:\n%s", name, now, got, want)
		}
		if got := dumpPhysical(level); got != want {
			t.Fatalf("%s (clock %v): the levelled side differs from the oracle\nlevelled:\n%s\noracle:\n%s", name, now, got, want)
		}
		written, level = level, written
	}

	// A history reaching back past every horizon, then the first sync: most
	// of it folds, and the bottom cube compacts.
	var history []fact
	for d := caltime.Date(2000, 1, 1); d < now; d += caltime.Day(1 + rng.Intn(3)) {
		history = append(history, draw(d, -1))
	}
	step("history", -1, func(cs *CubeSet) { insert(cs, history) })
	step("first sync", -1, sync)
	if compactions() == 0 {
		t.Fatal("the first sync compacted nothing")
	}

	// The pool's calendar ends with 2004: no boundary jumps in its last year.
	lastJump := caltime.Date(2004, 1, 1)
	for i := 0; i < 150; i++ {
		name := fmt.Sprintf("step %d: ", i)
		op := rng.Intn(17)
		if (op == 10 || op == 11) && now >= lastJump {
			op = 9
		}
		switch {
		case op < 3:
			var facts []fact
			for k := rng.Intn(6); k >= 0; k-- {
				facts = append(facts, draw(now-caltime.Day(rng.Intn(20)), -1))
			}
			step(name+"insert on-time", len(facts), func(cs *CubeSet) { insert(cs, facts) })
		case op < 5:
			// One cell over and over: an append, then merges into the tail
			// row, or merges into one row both sides already hold.
			f := draw(now-caltime.Day(rng.Intn(5)), rng.Intn(4))
			facts := []fact{f, f, draw(now, -1), f}
			step(name+"insert duplicate cells", len(facts), func(cs *CubeSet) { insert(cs, facts) })
		case op < 8:
			// A group commit: on-time and late facts, folded at once. Every
			// fact writes a bottom row; a late one moves on into one more.
			var facts []fact
			for k := rng.Intn(5); k >= 0; k-- {
				facts = append(facts, draw(now-caltime.Day(rng.Intn(10)), -1))
				facts = append(facts, draw(now-caltime.Day(40+rng.Intn(700)), -1))
			}
			step(name+"insert late and sync", syncBound(len(facts)), func(cs *CubeSet) { insert(cs, facts); sync(cs) })
		case op < 9:
			step(name+"sync same day", syncBound(0), sync)
		case op < 10:
			now++
			step(name+"sync next day", -1, sync)
		case op < 11:
			y, m, _ := now.Civil()
			now = caltime.Date(y, m+1, 1)
			step(name+"sync month boundary", -1, sync)
		case op < 12:
			y, m, _ := now.Civil()
			now = caltime.Date(y, m-(m-1)%3+3, 1)
			step(name+"sync quarter boundary", -1, sync)
		case op < 13:
			// Once with a new action, afterwards the layout rebuilt under
			// the same specification.
			step(name+"apply spec", -1, func(cs *CubeSet) {
				sp := cs.Spec()
				if _, has := sp.ActionByName("y"); !has {
					if err := sp.Insert(yearly); err != nil {
						t.Fatal(err)
					}
				}
				if err := cs.ApplySpec(sp, now); err != nil {
					t.Fatal(err)
				}
			})
		case op < 14:
			v := rng.Intn(2) == 0
			step(name+"set interpreted", 0, func(cs *CubeSet) { cs.SetInterpreted(v) })
		case op < 15:
			// Every live bottom cell once more: merges into more than a
			// quarter of the rows both sides hold, so the journal gives up.
			var facts []fact
			bottom := oracle.cubes[0].store
			bottom.Scan(func(r storage.RowID) bool {
				facts = append(facts, fact{bottom.Refs(r, nil), []float64{1, 1, 1, 1}})
				return true
			})
			step(name+"insert into every bottom row", -1, func(cs *CubeSet) { insert(cs, facts) })
		case op < 16:
			// One store write alone, as no operation of the engine issues it
			// (a merge sets the measures and the base count of one row
			// together): each is journaled on its own account.
			var cubes []int
			for ci, c := range oracle.cubes {
				if c.store.Live() > 0 {
					cubes = append(cubes, ci)
				}
			}
			ci := cubes[rng.Intn(len(cubes))]
			var rows []storage.RowID
			oracle.cubes[ci].store.Scan(func(r storage.RowID) bool { rows = append(rows, r); return true })
			r, baseOnly := rows[rng.Intn(len(rows))], rng.Intn(2) == 0
			step(name+"lone store write", 1, func(cs *CubeSet) {
				if baseOnly {
					cs.cubes[ci].store.AddBase(r, 2)
				} else {
					cs.cubes[ci].store.SetMeasure(r, 1, 77)
				}
			})
		default:
			// A long burst, synchronized on the same day: it stays
			// delta-only unless the set evaluates interpreted.
			var facts []fact
			for d := now - 24; d <= now; d++ {
				for u := range pool.urls {
					facts = append(facts, draw(d, u))
				}
			}
			incremental, delta := written.met.SyncsIncremental.Load(), written.tracking && !written.interpret
			step(name+"burst and sync same day", syncBound(len(facts)), func(cs *CubeSet) { insert(cs, facts); sync(cs) })
			if got := written.met.SyncsIncremental.Load() > incremental; delta && !got {
				t.Fatalf("%s (clock %v): the burst's Sync scanned in full", name, now)
			}
		}
	}
	if deltas == 0 || whole == 0 || wholeSide == 0 {
		t.Errorf("levelled %d steps row by row, %d with an overflowed journal, %d by a whole-side clone; want every kind", deltas, whole, wholeSide)
	}
}

// TestLevelFromAnotherSpecGeneration: a side whose specification moved on
// is not levelled cube by cube, even before its layout is rebuilt — the
// levelled side would keep routing by the actions it had.
func TestLevelFromAnotherSpecGeneration(t *testing.T) {
	pool := newLockstepPool(t)
	s, err := spec.New(pool.env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, pool.env))
	if err != nil {
		t.Fatal(err)
	}
	level, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	written := level.Clone()
	yearly := spec.MustCompileString("y", `aggregate [Time.year, URL.domain_grp] where Time.year <= NOW - 1 year`, pool.env)
	if err := written.Spec().Insert(yearly); err != nil {
		t.Fatal(err)
	}
	next, _ := level.LevelFrom(written)
	if next == level {
		t.Fatal("LevelFrom levelled in place across a specification change")
	}
	if _, has := next.Spec().ActionByName("y"); !has || next.Spec() == written.Spec() {
		t.Fatal("the levelled side does not carry its own copy of the new specification")
	}
}
