package warehouse

import (
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/relstore"
	"dimred/internal/spec"
	"dimred/internal/workload"
)

// TestLifecycleWithPeriodicBulkLoads drives a warehouse the way the
// paper envisions production use: monthly bulk loads interleaved with
// the passage of time, a specification change mid-life, late-arriving
// old facts, and continuous queries — asserting conservation and
// correct storage behaviour throughout.
func TestLifecycleWithPeriodicBulkLoads(t *testing.T) {
	obj, env := clickEnv(t)
	w, err := Open(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env),
		spec.MustCompileString("q", `aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`, env))
	if err != nil {
		t.Fatal(err)
	}

	var loadedDwell float64
	loadMonth := func(year, month int) {
		t.Helper()
		cfg := workload.ClickConfig{
			Seed: int64(year*100 + month), Start: caltime.Date(year, month, 1),
			Days: 28, ClicksPerDay: 15, Domains: 5, URLsPerDomain: 2,
		}
		err := w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
			return workload.GenerateClicks(cfg, func(c workload.Click) error {
				refs, meas, err := obj.Row(c)
				if err != nil {
					return err
				}
				loadedDwell += meas[1]
				return load(refs, meas)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	queryDwell := func() float64 {
		t.Helper()
		res, err := w.Query(`aggregate [Time.TOP, URL.TOP]`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() == 0 {
			return 0
		}
		return res.Measure(0, 1)
	}

	// Twelve monthly bulk loads across 2000, advancing the clock.
	for m := 1; m <= 12; m++ {
		if err := w.AdvanceTo(caltime.Date(2000, m, 1)); err != nil {
			t.Fatal(err)
		}
		loadMonth(2000, m)
		if got := queryDwell(); got != loadedDwell {
			t.Fatalf("month %d: query total %v != loaded %v", m, got, loadedDwell)
		}
	}

	// Mid-life spec change: add a yearly roll-up above everything.
	if err := w.AdvanceTo(caltime.Date(2001, 3, 1)); err != nil {
		t.Fatal(err)
	}
	y := spec.MustCompileString("y",
		`aggregate [Time.year, URL.domain_grp] where Time.year <= NOW - 2 years`, env)
	if err := w.InsertActions(y); err != nil {
		t.Fatal(err)
	}
	if got := queryDwell(); got != loadedDwell {
		t.Fatalf("after spec change: query total %v != loaded %v", got, loadedDwell)
	}

	// Late arrival of very old data: it flows through the bottom cube
	// and aggregates straight to its level on the bulk-load sync.
	err = w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
		d := obj.Time.EnsureDay(caltime.Date(2000, 2, 14))
		u, err := obj.URL.EnsureURL("http://late.example.com/x")
		if err != nil {
			return err
		}
		loadedDwell += 500
		return load([]mdm.ValueID{d, u}, []float64{1, 500, 1, 9})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := queryDwell(); got != loadedDwell {
		t.Fatalf("after late arrival: query total %v != loaded %v", got, loadedDwell)
	}
	bottomRows := w.Cubes().Cubes()[0].Rows()
	if bottomRows != 0 {
		t.Errorf("late arrival left %d rows in the bottom cube after sync", bottomRows)
	}

	// Years later everything is at (year, domain_grp); storage collapsed,
	// totals exact.
	if err := w.AdvanceTo(caltime.Date(2004, 1, 2)); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Savings() < 0.95 {
		t.Errorf("savings = %.3f, want > 0.95", st.Savings())
	}
	if got := queryDwell(); got != loadedDwell {
		t.Fatalf("final: query total %v != loaded %v", got, loadedDwell)
	}

	// The star export carries the mixed-granularity state.
	mo, err := w.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	star, err := relstore.BuildStar(mo)
	if err != nil {
		t.Fatal(err)
	}
	if star.Fact.Rows() != st.Rows {
		t.Errorf("star fact rows = %d, warehouse rows = %d", star.Fact.Rows(), st.Rows)
	}
	var starDwell float64
	for _, meas := range star.Fact.Measures {
		starDwell += meas[1]
	}
	if starDwell != loadedDwell {
		t.Errorf("star dwell total %v != loaded %v", starDwell, loadedDwell)
	}
}

// TestWarehouseWithDeletionPolicy runs the full retention ladder
// including physical deletion (the Section 8 extension): detail →
// month → quarter → gone, with the deleted volume reported.
func TestWarehouseWithDeletionPolicy(t *testing.T) {
	obj, env := clickEnv(t)
	w, err := Open(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env),
		spec.MustCompileString("q", `aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`, env),
		spec.MustCompileString("purge", `delete where Time.year <= NOW - 3 years`, env))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(caltime.Date(2000, 1, 1)); err != nil {
		t.Fatal(err)
	}
	cfg := workload.ClickConfig{Seed: 9, Start: caltime.Date(2000, 1, 1), Days: 90, ClicksPerDay: 10}
	err = w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
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
	// 2002: aggregated but present.
	if err := w.AdvanceTo(caltime.Date(2002, 6, 1)); err != nil {
		t.Fatal(err)
	}
	res, err := w.Query(`aggregate [Time.TOP, URL.TOP]`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Measure(0, 0) != 900 {
		t.Fatalf("2002 grand count = %v", res.Dump())
	}
	// 2005: everything purged.
	if err := w.AdvanceTo(caltime.Date(2005, 1, 2)); err != nil {
		t.Fatal(err)
	}
	res, err = w.Query(`aggregate [Time.TOP, URL.TOP]`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("2005 result = %v", res.Dump())
	}
	if got := w.Cubes().DeletedFacts(); got != 900 {
		t.Errorf("deleted facts = %d, want 900", got)
	}
	if st := w.Stats(); st.Rows != 0 || st.FactBytes != 0 {
		t.Errorf("stats after purge: %+v", st)
	}
}
