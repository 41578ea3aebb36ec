package warehouse

import (
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/spec"
	"dimred/internal/workload"
)

// TestSoakThreeYearLifecycle is a long-haul end-to-end run: three years
// of weekly bulk loads under a three-tier policy with a deletion tail,
// verifying after every load that (a) grand totals equal what was
// loaded minus what was deleted, (b) storage never exceeds the
// unreduced footprint, and (c) the bottom cube holds only recent data.
// Skipped with -short.
func TestSoakThreeYearLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	obj, env := clickEnv(t)
	w, err := Open(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env),
		spec.MustCompileString("q", `aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`, env),
		spec.MustCompileString("purge", `delete where Time.year <= NOW - 3 years`, env))
	if err != nil {
		t.Fatal(err)
	}
	start := caltime.Date(2000, 1, 3)
	if err := w.AdvanceTo(start); err != nil {
		t.Fatal(err)
	}

	var loadedClicks float64
	week := 0
	for day := start; day < caltime.Date(2003, 1, 1); day += 7 {
		week++
		cfg := workload.ClickConfig{
			Seed: int64(week), Start: day, Days: 7, ClicksPerDay: 40,
			Domains: 8, URLsPerDomain: 4,
		}
		err := w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
			return workload.GenerateClicks(cfg, func(c workload.Click) error {
				refs, meas, err := obj.Row(c)
				if err != nil {
					return err
				}
				loadedClicks++
				return load(refs, meas)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AdvanceTo(day + 7); err != nil {
			t.Fatal(err)
		}
		if week%13 != 0 {
			continue // verify quarterly to keep the soak fast
		}
		res, err := w.Query(`aggregate [Time.TOP, URL.TOP]`)
		if err != nil {
			t.Fatal(err)
		}
		var have float64
		if res.Len() > 0 {
			have = res.Measure(0, 0)
		}
		deleted := float64(w.Cubes().DeletedFacts())
		if have+deleted != loadedClicks {
			t.Fatalf("week %d: have %v + deleted %v != loaded %v", week, have, deleted, loadedClicks)
		}
		st := w.Stats()
		if st.FactBytes > st.UnreducedBytes {
			t.Fatalf("week %d: fact bytes exceed unreduced footprint", week)
		}
		// The bottom cube's live rows should be at most ~3 months old
		// (its zone map is a never-shrinking hull, so inspect the rows).
		bottom := w.Cubes().Cubes()[0]
		bmo, err := bottom.MO(env.Schema)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < bmo.Len(); f++ {
			v := bmo.Ref(mdm.FactID(f), 0)
			p, ok := obj.Time.PeriodOfValue(v)
			if !ok {
				t.Fatal("bottom row without period")
			}
			if age := day - caltime.Day(p.Index); age > 150 {
				t.Fatalf("week %d: bottom cube holds a row %d days old", week, age)
			}
		}
	}
	// After three years, the 2000 data has been deleted.
	if w.Cubes().DeletedFacts() == 0 {
		t.Error("nothing was purged over three years")
	}
	st := w.Stats()
	if st.Savings() < 0.9 {
		t.Errorf("final savings = %.2f", st.Savings())
	}
	t.Logf("soak: loaded %v clicks, deleted %d, final rows %d, savings %.1f%%",
		loadedClicks, w.Cubes().DeletedFacts(), st.Rows, 100*st.Savings())
}
