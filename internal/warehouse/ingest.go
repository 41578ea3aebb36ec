package warehouse

import (
	"fmt"

	"dimred/internal/ingest"
	"dimred/internal/mdm"
	"dimred/internal/subcube"
)

// Streaming ingest: Ingest appends facts to a sharded delta buffer
// without touching the served snapshot; a background compactor (or an
// explicit FlushIngest) drains the buffer and folds the batch into the
// subcube DAG through the same sync-carrying commit as LoadBatch, so
// readers see either the pre-fold warehouse or the fully reduced
// post-fold one — never a half-folded delta. A fact whose day is
// already inside a reduced region is counted late and, because the fold
// synchronizes at the commit clock, lands at Cell(f, t)'s granularity
// and merges distributively (the Growing invariant makes the delta fold
// exact — TestWarehouseMatchesModel holds every fold to Definition 2).

// Ingest buffers one bottom-granularity fact for asynchronous
// compaction. It never touches the served snapshot or the writer lock:
// the fact is validated against the schema, deep-copied into a buffer
// shard, and becomes queryable when the background compactor (or an
// explicit FlushIngest) folds the accumulated deltas. Safe for any
// number of concurrent producers — of facts, not of dimension values:
// growing a dimension (EnsureDay, EnsureURL, AddValue) is not
// synchronized with the compactor or with lock-free readers, which read
// it, so resolve refs before the warehouse is used concurrently.
func (w *Warehouse) Ingest(refs []mdm.ValueID, meas []float64) error {
	// Insert's own check, made here so that a producer gets the error now
	// instead of a poisoned batch at compaction time. It only reads the
	// schema, hence needs no lock.
	if err := w.env.Schema.CheckFact(refs, meas, w.bottom); err != nil {
		return fmt.Errorf("warehouse: Ingest: %w", err)
	}
	w.buf.Append(refs, meas)
	w.met.IngestQueued.Inc()
	return nil
}

// IngestPending reports the number of ingested facts buffered but not
// yet compacted.
func (w *Warehouse) IngestPending() int64 { return w.buf.Pending() }

// StartIngest launches the background compactor: a detached loop that
// wakes on ingest arrivals and folds batches of at least cfg.MinBatch
// facts through the sync-carrying commit path. The delta buffer itself
// exists from Open (Ingest works with or without a compactor); this
// only starts the automatic folding. Returns an error if a compactor is
// already running. From here on the compactor reads the dimensions on
// its own goroutine: every value later facts reference must already be
// resolved (see Ingest).
func (w *Warehouse) StartIngest(cfg ingest.Config) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if w.comp != nil {
		return fmt.Errorf("warehouse: StartIngest: compactor already running")
	}
	w.comp = ingest.StartCompactor(w.buf, cfg, w.compactDeltas)
	return nil
}

// StopIngest stops the background compactor after a final
// drain-and-fold, returning the first fold error the compactor hit (if
// any). A no-op when no compactor is running. Facts ingested after
// StopIngest keep buffering and wait for a FlushIngest or the next
// StartIngest.
func (w *Warehouse) StopIngest() error {
	w.wmu.Lock()
	comp := w.comp
	w.comp = nil
	w.wmu.Unlock()
	if comp == nil {
		return nil
	}
	// Stop joins a final fold that takes wmu itself, so the lock must be
	// released before waiting.
	return comp.Stop()
}

// FlushIngest synchronously drains the delta buffer and folds the batch
// into the warehouse; a batch whose fold fails is dropped and counted in
// IngestRejected. Concurrent with a running compactor this is safe:
// Drain hands out disjoint batches and the folds serialize on the
// writer lock (the fold is commutative — distributive merges — so the
// interleaving order cannot change the result).
func (w *Warehouse) FlushIngest() error {
	return w.compactDeltas(w.buf.Drain())
}

// compactDeltas folds one drained batch into the subcube DAG as a
// single sync-carrying publication: insert every row at the bottom,
// then synchronize at the current clock, so each fact lands at
// Cell(f, t)'s granularity and readers never observe the unfolded
// batch. It is the Compactor's fold callback and FlushIngest's body.
func (w *Warehouse) compactDeltas(rows []ingest.Row) error {
	if len(rows) == 0 {
		return nil
	}
	clk := w.met.Clock()
	start := clk.Now()
	w.wmu.Lock()
	defer w.wmu.Unlock()
	// Late is judged against the pre-fold state: the reduced regions as
	// of the last synchronization.
	var late int64
	for _, r := range rows {
		if w.working.Late(r.Refs) {
			late++
		}
	}
	err := w.syncWithLocked(func(cs *subcube.CubeSet) (int, error) {
		for _, r := range rows {
			if err := cs.Insert(r.Refs, r.Meas); err != nil {
				return 0, err
			}
		}
		return len(rows), nil
	})
	n := int64(len(rows))
	if err != nil {
		// The batch is already drained: count it, so a lost batch shows
		// as queued = compacted + rejected + pending rather than as a
		// counter pair that never meets again.
		w.met.IngestRejected.Add(n)
		return err
	}
	w.loaded.Add(n)
	w.met.FactsLoaded.Add(n)
	w.met.IngestCompacted.Add(n)
	w.met.IngestLate.Add(late)
	w.met.CompactionDuration.Observe(clk.Since(start))
	return nil
}
