package warehouse

import (
	"runtime"
	"testing"
	"time"

	"dimred/internal/caltime"
	"dimred/internal/ingest"
	"dimred/internal/mdm"
	"dimred/internal/subcube"
	"dimred/internal/workload"
)

// TestGoroutinesJoin is the join proof for the module's four go
// statements — the compactor loop, the per-cube query workers, and the
// two per-cube sync phases: after each operation that spawns, the
// process is back at the goroutine count it started from. The race
// detector sees a goroutine that touches shared state; it cannot see one
// that is simply never waited for, and this can. A worker is allowed the
// instant between its wg.Done and its exit; a leak never goes away.
func TestGoroutinesJoin(t *testing.T) {
	w, obj := openClickWarehouse(t)
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(start + 89); err != nil {
		t.Fatal(err)
	}
	loadStream(t, w, obj, workload.ClickConfig{Seed: 4, Start: start, Days: 90, ClicksPerDay: 30, Domains: 6, URLsPerDomain: 4})
	dv, ok := obj.Time.DayValue(start + 89)
	if !ok {
		t.Fatal("last loaded day has no value")
	}
	urls := obj.URL.Dimension.ValuesIn(w.Env().Schema.BottomGranularity()[1])
	const loaded = 90 * 30

	baseline := runtime.NumGoroutine()
	settled := func(step string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > baseline {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, %d before it:\n%s", step, n, baseline, buf[:runtime.Stack(buf, true)])
		}
	}
	// count is the grand total of the count measure: a query that
	// returned before every per-cube worker delivered misses facts.
	grand, err := subcube.ParseQuery(`aggregate [Time.TOP, URL.TOP]`, w.Env())
	if err != nil {
		t.Fatal(err)
	}
	count := func(step string, at caltime.Day, want float64) {
		t.Helper()
		res, err := w.QueryAt(grand, at)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if res.Len() != 1 {
			t.Fatalf("%s: %d result cells, want 1", step, res.Len())
		}
		if got := res.Measure(0, 0); got != want {
			t.Fatalf("%s: grand count %v, want %v", step, got, want)
		}
		settled(step)
	}

	if err := w.StartIngest(ingest.Config{MinBatch: 8}); err != nil {
		t.Fatal(err)
	}
	if runtime.NumGoroutine() <= baseline {
		t.Fatal("StartIngest started no goroutine; the baseline proves nothing")
	}
	for i := 0; i < 64; i++ {
		if err := w.Ingest([]mdm.ValueID{dv, urls[i%len(urls)]}, []float64{1, 1, 1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.FlushIngest(); err != nil {
		t.Fatal(err)
	}
	if err := w.StopIngest(); err != nil {
		t.Fatal(err)
	}
	settled("ingest start/flush/stop")

	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	settled("Sync")

	count("synchronized query", w.Now(), loaded+64)
	count("un-synchronized query", w.Now()+40, loaded+64)
}
