package dimred_test

import (
	"testing"

	"dimred"
)

// TestIngestFacade runs the streaming-ingest surface end to end through
// the public API: StartIngest with an IngestConfig, concurrent-safe
// Ingest, and StopIngest folding everything into queryable state.
func TestIngestFacade(t *testing.T) {
	paper, err := dimred.PaperMO()
	if err != nil {
		t.Fatal(err)
	}
	env, err := dimred.NewEnv(paper.Schema, "Time", paper.Time)
	if err != nil {
		t.Fatal(err)
	}
	a, err := dimred.CompileAction("m",
		`aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dimred.Open(env, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(dimred.Date(2000, 6, 1)); err != nil {
		t.Fatal(err)
	}
	// Growing a dimension is not synchronized with a live warehouse (the
	// compactor and lock-free readers read it): resolve every value
	// before the compactor starts.
	const n = 40
	var days [n]dimred.ValueID
	for i := range days {
		days[i] = paper.Time.EnsureDay(dimred.Date(2000, 1, 1) + dimred.Day(i))
	}
	uv := paper.URL.MustEnsureURL("http://www.alpha.com/index")
	if err := w.StartIngest(dimred.IngestConfig{MinBatch: 1}); err != nil {
		t.Fatal(err)
	}
	for _, dv := range days {
		if err := w.Ingest([]dimred.ValueID{dv, uv}, []float64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.StopIngest(); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if m.IngestQueued != n || m.IngestCompacted != n || m.IngestRejected != 0 || m.IngestPending != 0 {
		t.Fatalf("ingest counters: queued=%d compacted=%d rejected=%d pending=%d, want %d/%d/0/0",
			m.IngestQueued, m.IngestCompacted, m.IngestRejected, m.IngestPending, n, n)
	}
	// Every ingested day is inside the already-reduced region at NOW.
	if m.IngestLate != n {
		t.Fatalf("IngestLate = %d, want %d", m.IngestLate, n)
	}
	res, err := w.Query(`aggregate [Time.TOP, URL.TOP]`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Measure(0, 0); got < n {
		t.Fatalf("grand count = %v, want >= %d", got, n)
	}
}

// TestBadValueIDsAreErrors: a value id from outside the dimension — one
// before the first, one past the last, or far away — or a cell short of a
// dimension is an error from every way a fact enters the warehouse, and
// from Explain, not an index panic under the writer lock or a reader's
// pin; nothing is published and no fact is counted.
func TestBadValueIDsAreErrors(t *testing.T) {
	paper, err := dimred.PaperMO()
	if err != nil {
		t.Fatal(err)
	}
	env, err := dimred.NewEnv(paper.Schema, "Time", paper.Time)
	if err != nil {
		t.Fatal(err)
	}
	a, err := dimred.CompileAction("m",
		`aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dimred.Open(env, a)
	if err != nil {
		t.Fatal(err)
	}
	// Synchronized, so that Load asks whether the fact is late.
	if err := w.AdvanceTo(dimred.Date(2000, 6, 1)); err != nil {
		t.Fatal(err)
	}
	day := paper.Time.EnsureDay(dimred.Date(2000, 5, 30))
	url := paper.URL.MustEnsureURL("http://www.alpha.com/index")
	meas := []float64{1, 2, 3, 4}
	before := w.Metrics()

	entries := map[string]func(refs []dimred.ValueID) error{
		"Ingest": func(refs []dimred.ValueID) error { return w.Ingest(refs, meas) },
		"Load":   func(refs []dimred.ValueID) error { return w.Load(refs, meas) },
		"LoadBatch": func(refs []dimred.ValueID) error {
			return w.LoadBatch(func(load func([]dimred.ValueID, []float64) error) error {
				if err := load([]dimred.ValueID{day, url}, meas); err != nil {
					return err
				}
				return load(refs, meas)
			})
		},
		"Explain": func(refs []dimred.ValueID) error {
			_, err := w.Explain(refs)
			return err
		},
	}
	timeValues := dimred.ValueID(paper.Schema.Dims[0].NumValues())
	urlValues := dimred.ValueID(paper.Schema.Dims[1].NumValues())
	for name, enter := range entries {
		for _, refs := range [][]dimred.ValueID{
			{-1, url}, {day, -1}, {timeValues, url}, {day, urlValues}, {1 << 20, url}, {day},
		} {
			if err := enter(refs); err == nil {
				t.Errorf("%s took the fact %v", name, refs)
			}
		}
	}
	after := w.Metrics()
	if after.IngestQueued != before.IngestQueued || after.FactsLoaded != before.FactsLoaded ||
		after.SnapshotPublishes != before.SnapshotPublishes || w.IngestPending() != 0 {
		t.Fatalf("refused facts left a trace: queued %d -> %d, loaded %d -> %d, publishes %d -> %d, pending %d",
			before.IngestQueued, after.IngestQueued, before.FactsLoaded, after.FactsLoaded,
			before.SnapshotPublishes, after.SnapshotPublishes, w.IngestPending())
	}
	// The good row of each refused batch went with it.
	if err := w.Load([]dimred.ValueID{day, url}, meas); err != nil {
		t.Fatal(err)
	}
	if got := w.Metrics().FactsLoaded - before.FactsLoaded; got != 1 {
		t.Fatalf("%d facts loaded after one good Load, want 1", got)
	}
}
