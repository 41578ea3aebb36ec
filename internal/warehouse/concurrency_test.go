package warehouse

import (
	"sync"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/spec"
	"dimred/internal/workload"
)

// TestConcurrentQueriesAndLoads hammers a warehouse with parallel
// queries while a writer interleaves loads and clock advances; run with
// -race this validates the locking discipline.
//
// Note: dimension builders are not concurrent-safe, so the writer
// resolves dimension values before handing rows to the warehouse.
func TestConcurrentQueriesAndLoads(t *testing.T) {
	obj, env := clickEnv(t)
	w, err := Open(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 1 month`, env))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(caltime.Date(2000, 1, 1)); err != nil {
		t.Fatal(err)
	}

	// Pre-resolve all rows (dimension mutation happens here, before the
	// concurrent phase).
	type row struct {
		refs []mdm.ValueID
		meas []float64
	}
	var rows []row
	cfg := workload.ClickConfig{Seed: 13, Start: caltime.Date(2000, 1, 1), Days: 90, ClicksPerDay: 10}
	err = workload.GenerateClicks(cfg, func(c workload.Click) error {
		refs, meas, err := obj.Row(c)
		if err != nil {
			return err
		}
		rows = append(rows, row{refs, meas})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := w.Query(`aggregate [Time.month, URL.domain_grp]`); err != nil {
					t.Error(err)
					return
				}
				_ = w.Stats()
				_ = w.Now()
			}
		}()
	}
	// Writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		day := caltime.Date(2000, 1, 2)
		for i, r := range rows {
			if err := w.Load(r.refs, r.meas); err != nil {
				t.Error(err)
				return
			}
			if i%200 == 199 {
				day += 20
				if err := w.AdvanceTo(day); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()

	// Everything loaded is queryable.
	if err := w.AdvanceTo(caltime.Date(2000, 8, 1)); err != nil {
		t.Fatal(err)
	}
	res, err := w.Query(`aggregate [Time.TOP, URL.TOP]`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Measure(0, 0) != float64(len(rows)) {
		t.Errorf("grand count = %v, want %d", res.Measure(0, 0), len(rows))
	}
}

// TestConcurrentQueryMutateAdvance stresses the generation-keyed
// program cache under -race: readers query (compiled path, cache
// lookups under the read lock) while one writer interleaves
// specification mutations — each bumping the generation and
// invalidating the cache — with clock advances. The queried totals
// must stay exact throughout, and the cache counters must show both
// reuse and invalidation.
func TestConcurrentQueryMutateAdvance(t *testing.T) {
	obj, env := clickEnv(t)
	w, err := Open(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 1 month`, env))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(caltime.Date(2000, 1, 1)); err != nil {
		t.Fatal(err)
	}

	// Resolve all dimension values before the concurrent phase, including
	// a domain that never receives facts: the churn action below
	// restricts to it, so Definition 4's responsibility check always
	// lets the action go again.
	if _, err := obj.URL.EnsureURL("http://www.unused.com/none"); err != nil {
		t.Fatal(err)
	}
	cfg := workload.ClickConfig{Seed: 29, Start: caltime.Date(2000, 1, 1), Days: 60, ClicksPerDay: 8}
	loaded := 0
	err = workload.GenerateClicks(cfg, func(c workload.Click) error {
		refs, meas, err := obj.Row(c)
		if err != nil {
			return err
		}
		loaded++
		return w.Load(refs, meas)
	})
	if err != nil {
		t.Fatal(err)
	}
	churn := spec.MustCompileString("churn",
		`aggregate [Time.month, URL.domain] where URL.domain = "unused.com" and Time.month <= NOW - 2 months`, env)
	// Prove the mutation pair is accepted before racing it.
	if err := w.InsertActions(churn); err != nil {
		t.Fatal(err)
	}
	if err := w.DeleteActions("churn"); err != nil {
		t.Fatal(err)
	}
	gen0 := w.Spec().Generation()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := w.Query(`aggregate [Time.TOP, URL.TOP]`)
				if err != nil {
					t.Error(err)
					return
				}
				// Every mutation keeps the same facts, so the grand
				// total is invariant no matter which generation of the
				// compiled program a query raced against.
				if res.Len() != 1 || res.Measure(0, 0) != float64(loaded) {
					t.Errorf("grand count = %v, want %d", res.Measure(0, 0), loaded)
					return
				}
				_ = w.Metrics()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		day := caltime.Date(2000, 3, 1)
		for i := 0; i < 20; i++ {
			if err := w.InsertActions(churn); err != nil {
				t.Error(err)
				return
			}
			if err := w.DeleteActions("churn"); err != nil {
				t.Error(err)
				return
			}
			if i%5 == 4 {
				day += 10
				if err := w.AdvanceTo(day); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()

	if got, want := w.Spec().Generation(), gen0+40; got != want {
		t.Errorf("spec generation = %d after 40 committed mutations, want %d", got, want)
	}
	snap := w.Metrics()
	if snap.ProgramCacheMisses == 0 || snap.ProgramCacheHits == 0 {
		t.Errorf("cache counters show no churn: hits=%d misses=%d", snap.ProgramCacheHits, snap.ProgramCacheMisses)
	}
	res, err := w.Query(`aggregate [Time.TOP, URL.TOP]`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Measure(0, 0) != float64(loaded) {
		t.Errorf("final grand count = %v, want %d", res.Measure(0, 0), loaded)
	}
}
