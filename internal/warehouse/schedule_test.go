package warehouse

import (
	"bytes"
	"testing"
	"time"

	"dimred/internal/caltime"
	"dimred/internal/dims"
	"dimred/internal/mdm"
	"dimred/internal/obs"
	"dimred/internal/spec"
)

// openPaperWarehouse opens a warehouse over the paper's example object
// under the given actions (named x1, x2, ...).
func openPaperWarehouse(t *testing.T, actions ...string) (*Warehouse, *dims.PaperObject) {
	t.Helper()
	p := dims.MustPaperMO()
	env, err := spec.NewEnv(p.Schema, "Time", p.Time)
	if err != nil {
		t.Fatal(err)
	}
	var compiled []*spec.Action
	for i, src := range actions {
		compiled = append(compiled, spec.MustCompileString([]string{"x1", "x2", "x3"}[i], src, env))
	}
	w, err := Open(env, compiled...)
	if err != nil {
		t.Fatal(err)
	}
	return w, p
}

// loadMO bulk-loads every fact of mo (one LoadBatch, hence one sync).
func loadMO(t *testing.T, w *Warehouse, mo *mdm.MO) {
	t.Helper()
	err := w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
		for f := 0; f < mo.Len(); f++ {
			if err := load(mo.Refs(mdm.FactID(f)), mo.Measures(mdm.FactID(f))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// advanceSyncs advances the clock and returns how many synchronization
// rounds the advance ran.
func advanceSyncs(t *testing.T, w *Warehouse, to caltime.Day) int64 {
	t.Helper()
	before := w.Metrics().Syncs
	if err := w.AdvanceTo(to); err != nil {
		t.Fatal(err)
	}
	return w.Metrics().Syncs - before
}

const (
	monthAction   = `aggregate [Time.month, URL.domain] where Time.month <= NOW - 6 months`
	quarterAction = `aggregate [Time.quarter, URL.domain] where Time.quarter <= NOW - 4 quarters`
	yearAction    = `aggregate [Time.year, URL.domain] where Time.year <= NOW - 3 years`
)

func TestSchedulerAdvance(t *testing.T) {
	w, p := openPaperWarehouse(t, monthAction)
	// The first advance synchronizes: nothing ever has.
	if n := advanceSyncs(t, w, caltime.Date(2000, 3, 10)); n != 1 {
		t.Fatalf("first advance ran %d syncs, want 1", n)
	}
	loadMO(t, w, p.MO)
	// Same month: no re-sync.
	if n := advanceSyncs(t, w, caltime.Date(2000, 3, 25)); n != 0 {
		t.Errorf("same-month advance ran %d syncs", n)
	}
	// Next month: sync again, and the older facts migrate.
	folded := w.Metrics().RowsFolded
	if n := advanceSyncs(t, w, caltime.Date(2000, 6, 2)); n != 1 {
		t.Errorf("cross-month advance ran %d syncs, want 1", n)
	}
	if w.Metrics().RowsFolded == folded {
		t.Error("no rows migrated by 2000/6")
	}
	// The clock never runs backwards, and an advance that leaves it where
	// it is publishes nothing; it still counts as an advance.
	for _, to := range []caltime.Day{caltime.Date(2000, 1, 1), caltime.Date(2000, 6, 2)} {
		before := w.Metrics()
		if n := advanceSyncs(t, w, to); n != 0 {
			t.Errorf("advance to %v ran %d syncs", to, n)
		}
		if w.Now() != caltime.Date(2000, 6, 2) {
			t.Errorf("advance to %v moved the clock", to)
		}
		after := w.Metrics()
		if d := after.Sub(before); d.SnapshotPublishes != 0 || d.Advances != 1 {
			t.Errorf("advance to %v: %d publishes, %d advances; want 0, 1",
				to, d.SnapshotPublishes, d.Advances)
		}
	}
	// A bulk load synchronizes regardless of the period.
	before := w.Metrics().Syncs
	loadMO(t, w, p.MO)
	if n := w.Metrics().Syncs - before; n != 1 {
		t.Errorf("bulk load ran %d syncs, want 1", n)
	}
}

// TestSyncLatencyDeterministic drives synchronization against the obs
// fake clock: each sync round brackets its work with one Now/Since
// pair, and with a 5ms step per read the latency histogram must record
// exactly one 5ms observation per round — no flaky wall-clock slack.
func TestSyncLatencyDeterministic(t *testing.T) {
	w, p := openPaperWarehouse(t, monthAction)
	const step = 5 * time.Millisecond
	clk := obs.NewFakeClock(time.Date(2000, 3, 1, 0, 0, 0, 0, time.UTC))
	clk.SetStep(step)
	w.met.SetClock(clk)

	for _, d := range []caltime.Day{caltime.Date(2000, 3, 10), caltime.Date(2000, 4, 2)} {
		if err := w.AdvanceTo(d); err != nil {
			t.Fatal(err)
		}
	}
	loadMO(t, w, p.MO) // bulk-load sync
	h := w.Metrics().SyncDuration
	if h.Count != 3 {
		t.Fatalf("sync latency count = %d, want 3", h.Count)
	}
	if h.Max != step || h.Mean != step || h.Sum != 3*step {
		t.Errorf("sync latency max=%v mean=%v sum=%v, want %v/%v/%v",
			h.Max, h.Mean, h.Sum, step, step, 3*step)
	}
}

func TestSchedulerFixedSpecNeverTimesOut(t *testing.T) {
	w, p := openPaperWarehouse(t,
		`aggregate [Time.month, URL.domain] where Time.month <= 1999/12`)
	for _, d := range []caltime.Day{caltime.Date(2000, 1, 1), caltime.Date(2003, 1, 1)} {
		if n := advanceSyncs(t, w, d); n != 0 {
			t.Errorf("fixed spec ran %d syncs at %v", n, d)
		}
	}
	// But bulk loads still synchronize.
	loadMO(t, w, p.MO)
	if n := w.Metrics().Syncs; n != 1 {
		t.Errorf("Syncs = %d, want 1", n)
	}
}

// TestSignificantPeriodFollowsSpecChanges pins that the synchronization
// cadence is derived from the actions that are live now, not the ones
// Open saw: Section 7.2's "at least once per significant time period"
// must start firing when the first NOW-relative action is inserted,
// tighten when a finer unit joins, relax when it leaves, and survive a
// snapshot round-trip.
func TestSignificantPeriodFollowsSpecChanges(t *testing.T) {
	t.Run("first NOW-relative action", func(t *testing.T) {
		w, p := openPaperWarehouse(t)
		loadMO(t, w, p.MO)
		rows := w.Stats().Rows
		if err := w.InsertActions(spec.MustCompileString("m", monthAction, w.Env())); err != nil {
			t.Fatal(err)
		}
		if n := advanceSyncs(t, w, caltime.Date(2001, 1, 15)); n != 1 {
			t.Fatalf("advance after the insert ran %d syncs, want 1", n)
		}
		if got := w.Stats().Rows; got >= rows {
			t.Fatalf("rows did not shrink: %d -> %d", rows, got)
		}
	})

	t.Run("finer unit joins and leaves", func(t *testing.T) {
		w, _ := openPaperWarehouse(t, monthAction, yearAction)
		// {month, year}: one sync per year.
		if n := advanceSyncs(t, w, caltime.Date(2000, 1, 10)); n != 1 {
			t.Fatalf("first advance ran %d syncs, want 1", n)
		}
		if n := advanceSyncs(t, w, caltime.Date(2000, 5, 1)); n != 0 {
			t.Fatalf("same-year advance ran %d syncs under {month, year}", n)
		}
		// {month, quarter, year}: one sync per quarter.
		q := spec.MustCompileString("q", quarterAction, w.Env())
		if err := w.InsertActions(q); err != nil {
			t.Fatal(err)
		}
		if n := advanceSyncs(t, w, caltime.Date(2000, 6, 20)); n != 0 {
			t.Errorf("same-quarter advance ran %d syncs", n)
		}
		if n := advanceSyncs(t, w, caltime.Date(2000, 7, 2)); n != 1 {
			t.Errorf("cross-quarter advance ran %d syncs under {month, quarter, year}, want 1", n)
		}
		// The restored warehouse derives the same period.
		var buf bytes.Buffer
		if err := w.Save(&buf); err != nil {
			t.Fatal(err)
		}
		r, _, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n := advanceSyncs(t, r, caltime.Date(2000, 9, 30)); n != 0 {
			t.Errorf("restored: same-quarter advance ran %d syncs", n)
		}
		if n := advanceSyncs(t, r, caltime.Date(2000, 10, 1)); n != 1 {
			t.Errorf("restored: cross-quarter advance ran %d syncs, want 1", n)
		}
		// Back to {month, year}: a quarter boundary no longer synchronizes.
		if err := w.DeleteActions("q"); err != nil {
			t.Fatal(err)
		}
		if n := advanceSyncs(t, w, caltime.Date(2000, 10, 1)); n != 0 {
			t.Errorf("cross-quarter advance ran %d syncs after the quarter action left", n)
		}
		if n := advanceSyncs(t, w, caltime.Date(2001, 1, 1)); n != 1 {
			t.Errorf("cross-year advance ran %d syncs, want 1", n)
		}
	})
}
