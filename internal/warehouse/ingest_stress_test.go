package warehouse

import (
	"sync"
	"sync/atomic"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/ingest"
	"dimred/internal/subcube"
	"dimred/internal/views"
)

// TestStressIngestWithConcurrentReaders races producers calling Ingest
// against the background compactor, query-serving readers, and a writer
// that advances the clock and toggles materialized views, asserting
// from the reader side that delta compaction preserves the snapshot
// guarantees:
//
//   - no half-folded delta is ever observable: each compaction is one
//     publication, so every query sees whole folds — the per-measure
//     totals stay in exact lockstep with the count total;
//   - monotonicity: one reader's successive totals never decrease;
//   - no invented facts: the observed count never exceeds the number of
//     facts handed to Ingest so far.
//
// The pre-resolved rows span days far behind the clock, so a large
// share of the folds take the late-arrival path (IngestLate > 0) while
// the race runs. With -race this also validates the buffer's
// shard-mutex edges against the pin/publish/drain protocol.
func TestStressIngestWithConcurrentReaders(t *testing.T) {
	obj, env := clickEnv(t)
	mAct, qAct, _ := stressSpec(t, env)
	w, err := Open(env, mAct, qAct)
	if err != nil {
		t.Fatal(err)
	}
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(caltime.Date(2000, 6, 1)); err != nil {
		t.Fatal(err)
	}

	const (
		producers   = 4
		perProducer = 250
		readerGoro  = 3
	)
	total := producers * perProducer
	refs, meas := stressRows(t, obj, total, start)

	if err := w.StartIngest(ingest.Config{MinBatch: 8}); err != nil {
		t.Fatal(err)
	}

	// ingested counts facts handed to Ingest, incremented BEFORE the
	// append: the warehouse cannot serve a fact that was never appended,
	// so every observation must satisfy observed <= ingested.
	var ingested atomic.Int64
	var wg, rwg sync.WaitGroup
	stop := make(chan struct{})

	q := subcube.MustParseQuery(`aggregate [Time.quarter, URL.domain_grp]`, env)
	at := caltime.Date(2000, 6, 1)
	for r := 0; r < readerGoro; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			last := float64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				hi := ingested.Load() // loaded before the query: observed <= hi + in-flight
				res, err := w.QueryAt(q, at)
				if err != nil {
					t.Error(err)
					return
				}
				tot := grandTotals(res)
				count := tot[0]
				if tot[1] != 2*count || tot[2] != 3*count || tot[3] != 5*count {
					t.Errorf("half-folded delta observed: measure totals %v out of lockstep with count %v", tot, count)
					return
				}
				if count < last {
					t.Errorf("count went backwards: %v after %v", count, last)
					return
				}
				last = count
				// hi was read before the query, but Ingest counts before
				// appending, so the snapshot can only trail the counter.
				if count > float64(ingested.Load()) {
					t.Errorf("observed %v facts, only %d ingested (hi was %d)", count, ingested.Load(), hi)
					return
				}
			}
		}()
	}

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				j := p*perProducer + i
				ingested.Add(1)
				if err := w.Ingest(refs[j], meas[j]); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}

	// The mutator interleaves clock advances and view toggles with the
	// ingest traffic: every combination of compaction × view rebuild ×
	// snapshot publish runs under the race detector.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			switch i % 4 {
			case 0, 2:
				if err := w.AdvanceTo(w.Now() + 1); err != nil {
					t.Error(err)
					return
				}
			case 1:
				if err := w.EnableViews(views.Config{}); err != nil {
					t.Error(err)
					return
				}
			case 3:
				w.DisableViews()
			}
		}
	}()

	wg.Wait()
	if err := w.StopIngest(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	rwg.Wait()

	// Every ingested fact is folded and accounted for.
	res, err := w.QueryAt(q, at)
	if err != nil {
		t.Fatal(err)
	}
	if tot := grandTotals(res); tot[0] != float64(total) {
		t.Errorf("final count = %v, want %d", tot[0], total)
	}
	m := w.Metrics()
	if m.IngestQueued != int64(total) || m.IngestCompacted != int64(total) {
		t.Errorf("queued %d / compacted %d, want both %d", m.IngestQueued, m.IngestCompacted, total)
	}
	if m.IngestLate == 0 {
		t.Error("stress stream folded no late facts; the late path went unexercised")
	}
	if m.IngestPending != 0 {
		t.Errorf("IngestPending = %d after StopIngest", m.IngestPending)
	}
	if m.CompactionDuration.Count == 0 {
		t.Error("no compaction latency samples recorded")
	}
}
