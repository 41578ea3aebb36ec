package warehouse

import (
	"strings"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/query"
	"dimred/internal/spec"
	"dimred/internal/subcube"
	"dimred/internal/workload"
)

func openClickWarehouse(t testing.TB) (*Warehouse, *workload.ClickObject) {
	t.Helper()
	obj, err := workload.NewClickSchema()
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	a1 := spec.MustCompileString("to-month",
		`aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env)
	a2 := spec.MustCompileString("to-quarter",
		`aggregate [Time.quarter, URL.domain] where Time.quarter <= NOW - 4 quarters`, env)
	w, err := Open(env, a1, a2)
	if err != nil {
		t.Fatal(err)
	}
	return w, obj
}

func loadStream(t testing.TB, w *Warehouse, obj *workload.ClickObject, cfg workload.ClickConfig) {
	t.Helper()
	err := w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
		return workload.GenerateClicks(cfg, func(c workload.Click) error {
			refs, meas, err := obj.Row(c)
			if err != nil {
				return err
			}
			return load(refs, meas)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWarehouseLifecycle(t *testing.T) {
	w, obj := openClickWarehouse(t)
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(start); err != nil {
		t.Fatal(err)
	}
	cfg := workload.ClickConfig{Seed: 4, Start: start, Days: 90, ClicksPerDay: 30, Domains: 6, URLsPerDomain: 4}
	loadStream(t, w, obj, cfg)

	st := w.Stats()
	if st.LoadedFacts != 90*30 {
		t.Errorf("loaded = %d", st.LoadedFacts)
	}
	rowsBefore := st.Rows

	// Age the warehouse one year: the detail collapses to months.
	if err := w.AdvanceTo(caltime.Date(2001, 1, 15)); err != nil {
		t.Fatal(err)
	}
	st = w.Stats()
	if st.Rows >= rowsBefore {
		t.Errorf("rows did not shrink: %d -> %d", rowsBefore, st.Rows)
	}
	if st.Savings() <= 0.5 {
		t.Errorf("savings = %.2f, expected substantial reduction", st.Savings())
	}
	if !strings.Contains(st.String(), "savings") {
		t.Error("Stats.String missing savings")
	}

	// Totals are preserved through reduction: query the grand total.
	res, err := w.Query(`aggregate [Time.TOP, URL.TOP]`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Measure(0, 0) != float64(90*30) {
		t.Errorf("grand total = %v", res.Measure(0, 0))
	}

	// A domain-level monthly query still answers after reduction.
	res, err = w.Query(`aggregate [Time.month, URL.domain]`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Error("monthly query empty")
	}

	// Clock accessor.
	if w.Now() != caltime.Date(2001, 1, 15) {
		t.Error("Now wrong")
	}
	if w.Spec() == nil || w.Cubes() == nil || w.Env() == nil {
		t.Error("accessors")
	}
}

func TestWarehouseSpecEvolution(t *testing.T) {
	w, obj := openClickWarehouse(t)
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(start); err != nil {
		t.Fatal(err)
	}
	cfg := workload.ClickConfig{Seed: 6, Start: start, Days: 60, ClicksPerDay: 10}
	loadStream(t, w, obj, cfg)
	if err := w.AdvanceTo(caltime.Date(2002, 6, 1)); err != nil {
		t.Fatal(err)
	}
	total := grandTotal(t, w)

	// Add a year-level action; storage can only shrink further.
	env := w.Env()
	a3 := spec.MustCompileString("to-year",
		`aggregate [Time.year, URL.domain_grp] where Time.year <= NOW - 2 years`, env)
	bytesBefore := w.Stats().FactBytes
	if err := w.InsertActions(a3); err != nil {
		t.Fatal(err)
	}
	assertSyncedAtClock(t, w, "InsertActions")
	if err := w.AdvanceTo(caltime.Date(2003, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().FactBytes; got > bytesBefore {
		t.Errorf("bytes grew after adding a coarser action: %d -> %d", bytesBefore, got)
	}
	if got := grandTotal(t, w); got != total {
		t.Errorf("grand total changed: %v -> %v", total, got)
	}

	// Deleting to-year must be rejected: it is responsible for the rows
	// currently at (year, domain_grp) and no remaining action matches
	// that level (Definition 4). Deleting to-quarter, by contrast, is
	// legal here: everything has aggregated beyond its level.
	if err := w.DeleteActions("to-year"); err == nil {
		t.Error("deleting a responsible action succeeded")
	}
	if err := w.DeleteActions("to-quarter"); err != nil {
		t.Errorf("deleting a superseded action failed: %v", err)
	}
	assertSyncedAtClock(t, w, "DeleteActions")
	if got := grandTotal(t, w); got != total {
		t.Errorf("grand total changed by delete: %v -> %v", total, got)
	}
	// Deleting an unknown action fails cleanly.
	if err := w.DeleteActions("nope"); err == nil {
		t.Error("deleting unknown action succeeded")
	}
}

// TestDeleteActionsChecksResponsibilityAtTheClock: Definition 4 is
// judged at the warehouse clock. to-month has aggregated every loaded
// row; to-month-late shares its target but selects none of them yet, so
// the re-routed rows would fit the layout and only the responsibility
// check stands between the delete and rows stored above the level the
// remaining specification assigns them.
func TestDeleteActionsChecksResponsibilityAtTheClock(t *testing.T) {
	obj, err := workload.NewClickSchema()
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Open(env,
		spec.MustCompileString("to-month",
			`aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env),
		spec.MustCompileString("to-month-late",
			`aggregate [Time.month, URL.domain] where Time.month <= NOW - 6 months`, env))
	if err != nil {
		t.Fatal(err)
	}
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(start); err != nil {
		t.Fatal(err)
	}
	loadStream(t, w, obj, workload.ClickConfig{Seed: 9, Start: start, Days: 60, ClicksPerDay: 10})
	if err := w.AdvanceTo(caltime.Date(2000, 6, 1)); err != nil {
		t.Fatal(err)
	}
	rows := w.Stats().Rows

	err = w.DeleteActions("to-month")
	if err == nil || !strings.Contains(err.Error(), "action to-month is responsible") {
		t.Fatalf("DeleteActions(to-month) = %v, want a Definition 4 refusal", err)
	}
	if !strings.Contains(err.Error(), "at "+w.Now().String()) {
		t.Errorf("refusal %q is not judged at the warehouse clock %s", err, w.Now())
	}
	if n := len(w.Spec().Actions()); n != 2 {
		t.Errorf("refused delete left %d actions, want 2", n)
	}
	if got := w.Stats().Rows; got != rows {
		t.Errorf("refused delete changed rows: %d -> %d", rows, got)
	}
}

// TestExplainAnswersAtThePublishedClock: Explain names the actions that
// apply at the warehouse clock, so advancing the clock into a
// NOW-relative action's window changes its answer.
func TestExplainAnswersAtThePublishedClock(t *testing.T) {
	w, obj := openClickWarehouse(t)
	refs, _, err := obj.Row(workload.Click{Day: caltime.Date(2000, 1, 5), URL: "http://www.cnn.com/index.html"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(caltime.Date(2000, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if got := explain(t, w, refs); strings.Contains(got, "to-month") {
		t.Errorf("at %s January is inside no window, Explain says:\n%s", w.Now(), got)
	}
	if err := w.AdvanceTo(caltime.Date(2000, 6, 1)); err != nil {
		t.Fatal(err)
	}
	got := explain(t, w, refs)
	if !strings.Contains(got, "at "+w.Now().String()) || !strings.Contains(got, "Time -> month (by action to-month)") {
		t.Errorf("at %s Explain must name to-month, got:\n%s", w.Now(), got)
	}
}

func explain(t *testing.T, w *Warehouse, refs []mdm.ValueID) string {
	t.Helper()
	out, err := w.Explain(refs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func grandTotal(t *testing.T, w *Warehouse) float64 {
	t.Helper()
	res, err := w.Query(`aggregate [Time.TOP, URL.TOP]`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("grand total rows = %d", res.Len())
	}
	return res.Measure(0, 1)
}

// assertSyncedAtClock fails unless the published cube set is
// synchronized at the warehouse clock.
func assertSyncedAtClock(t *testing.T, w *Warehouse, after string) {
	t.Helper()
	if last, synced := w.Cubes().LastSync(); !synced || last != w.Now() {
		t.Errorf("after %s the cubes are synchronized at %s (synced=%v), want the clock %s", after, last, synced, w.Now())
	}
}

// TestNowRelativeQueryPredicates: a query predicate's NOW is the
// evaluation time, on the synchronized fast path (zone-map pruning
// included) and on the unsynchronized one, under every selection
// approach: each answer equals the query with NOW spelled out.
func TestNowRelativeQueryPredicates(t *testing.T) {
	w, obj := openClickWarehouse(t)
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(start); err != nil {
		t.Fatal(err)
	}
	loadStream(t, w, obj, workload.ClickConfig{Seed: 8, Start: start, Days: 120, ClicksPerDay: 10})
	if err := w.AdvanceTo(caltime.Date(2000, 7, 1)); err != nil {
		t.Fatal(err)
	}
	assertSyncedAtClock(t, w, "AdvanceTo")
	env := w.Env()
	for _, tc := range []struct {
		at    caltime.Day
		month string // NOW - 2 months at at
	}{
		{w.Now(), "2000/5"},
		{caltime.Date(2000, 8, 10), "2000/6"},
	} {
		for _, sel := range []query.Approach{query.Conservative, query.Liberal, query.Weighted} {
			rel := subcube.MustParseQuery(`aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env)
			abs := subcube.MustParseQuery(`aggregate [Time.month, URL.domain] where Time.month <= `+tc.month, env)
			rel.Sel, abs.Sel = sel, sel
			got, err := w.QueryAt(rel, tc.at)
			if err != nil {
				t.Fatal(err)
			}
			want, err := w.QueryAt(abs, tc.at)
			if err != nil {
				t.Fatal(err)
			}
			if want.Len() == 0 || got.DumpCells() != want.DumpCells() {
				t.Errorf("at %s, approach %v: NOW - 2 months answered\n%s\nwant (month <= %s)\n%s",
					tc.at, sel, got.DumpCells(), tc.month, want.DumpCells())
			}
		}
	}
}

func TestWarehouseQueryErrors(t *testing.T) {
	w, _ := openClickWarehouse(t)
	if _, err := w.Query(`garbage`); err == nil {
		t.Error("bad query accepted")
	}
	if _, err := w.Query(`aggregate [Time.month]`); err == nil {
		t.Error("short target accepted")
	}
}

func TestOpenRejectsInvalidSpec(t *testing.T) {
	obj, err := workload.NewClickSchema()
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	// A shrinking action without cover violates Growing.
	bad := spec.MustCompileString("bad",
		`aggregate [Time.month, URL.domain] where NOW - 12 months < Time.month and Time.month <= NOW - 6 months`, env)
	if _, err := Open(env, bad); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestQueryWithApproaches(t *testing.T) {
	w, obj := openClickWarehouse(t)
	if err := w.AdvanceTo(caltime.Date(2000, 1, 1)); err != nil {
		t.Fatal(err)
	}
	loadStream(t, w, obj, workload.ClickConfig{
		Seed: 31, Start: caltime.Date(2000, 1, 1), Days: 120, ClicksPerDay: 10,
	})
	if err := w.AdvanceTo(caltime.Date(2000, 9, 1)); err != nil {
		t.Fatal(err)
	}
	// A week-range query on month-level data: conservative yields
	// nothing certain, liberal includes the overlapping months.
	src := `aggregate [Time.month, URL.domain_grp] where Time.week <= 2000W5`
	cons, err := w.QueryWith(src, query.Conservative, query.Availability)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := w.QueryWith(src, query.Liberal, query.Availability)
	if err != nil {
		t.Fatal(err)
	}
	if lib.Len() < cons.Len() {
		t.Errorf("liberal (%d) returned less than conservative (%d)", lib.Len(), cons.Len())
	}
	strict, err := w.QueryWith(`aggregate [Time.day, URL.url]`, query.Conservative, query.Strict)
	if err != nil {
		t.Fatal(err)
	}
	all, err := w.QueryWith(`aggregate [Time.day, URL.url]`, query.Conservative, query.Availability)
	if err != nil {
		t.Fatal(err)
	}
	if strict.Len() > all.Len() {
		t.Error("strict returned more than availability")
	}
	// Spec renders.
	if w.Spec().String() == "" {
		t.Error("Spec.String empty")
	}
}

// TestRefusedLoadKeepsWorkingSide: a fact the schema refuses is refused
// before the commit, so neither Load nor LoadBatch answers it by
// re-cloning the working side, nothing is published, and the next good
// Load commits.
func TestRefusedLoadKeepsWorkingSide(t *testing.T) {
	w, obj := openClickWarehouse(t)
	if err := w.AdvanceTo(caltime.Date(2000, 6, 1)); err != nil {
		t.Fatal(err)
	}
	good, meas, err := obj.Row(workload.Click{Day: caltime.Date(2000, 5, 30), URL: "http://www.alpha.com/index", Dwell: 3, Delivery: 1, SizeKB: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := []mdm.ValueID{good[0], mdm.ValueID(obj.Schema.Dims[1].NumValues())}
	working, before := w.working, w.Metrics()

	if err := w.Load(bad, meas); err == nil {
		t.Fatal("Load took a fact with a value id past the dimension")
	}
	if err := w.Load(good, meas[:1]); err == nil {
		t.Fatal("Load took a fact with too few measures")
	}
	err = w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
		if err := load(good, meas); err != nil {
			return err
		}
		_ = load(bad, meas) // a callback that drops the error still fails the batch
		return nil
	})
	if err == nil {
		t.Fatal("LoadBatch took a batch with a bad row")
	}
	if w.working != working {
		t.Error("a refused fact replaced the working side")
	}
	if d := w.Metrics().Sub(before); d.SnapshotPublishes != 0 || d.FactsLoaded != 0 {
		t.Errorf("refused facts: publishes=%d loaded=%d, want 0/0", d.SnapshotPublishes, d.FactsLoaded)
	}
	if err := w.Load(good, meas); err != nil {
		t.Fatal(err)
	}
	if d := w.Metrics().Sub(before); d.SnapshotPublishes != 1 || d.FactsLoaded != 1 {
		t.Errorf("after one good Load: publishes=%d loaded=%d, want 1/1", d.SnapshotPublishes, d.FactsLoaded)
	}
}
