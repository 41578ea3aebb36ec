package ingest

import (
	"fmt"
	"sync"
	"testing"

	"dimred/internal/mdm"
)

func row(i int) ([]mdm.ValueID, []float64) {
	return []mdm.ValueID{mdm.ValueID(i), mdm.ValueID(i * 2)}, []float64{float64(i), 1}
}

func TestBufferAppendDrain(t *testing.T) {
	b := NewBuffer(4)
	const n = 100
	for i := 0; i < n; i++ {
		refs, meas := row(i)
		b.Append(refs, meas)
	}
	if got := b.Pending(); got != n {
		t.Fatalf("Pending = %d, want %d", got, n)
	}
	rows := b.Drain()
	if len(rows) != n {
		t.Fatalf("Drain returned %d rows, want %d", len(rows), n)
	}
	if got := b.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
	if again := b.Drain(); len(again) != 0 {
		t.Fatalf("second Drain returned %d rows, want 0", len(again))
	}
	// Every appended row came back exactly once.
	seen := map[float64]int{}
	for _, r := range rows {
		seen[r.Meas[0]]++
	}
	for i := 0; i < n; i++ {
		if seen[float64(i)] != 1 {
			t.Fatalf("row %d drained %d times", i, seen[float64(i)])
		}
	}
}

func TestBufferCopiesCallerSlices(t *testing.T) {
	b := NewBuffer(1)
	refs := []mdm.ValueID{1, 2}
	meas := []float64{3, 4}
	b.Append(refs, meas)
	refs[0], meas[0] = 99, 99
	rows := b.Drain()
	if rows[0].Refs[0] != 1 || rows[0].Meas[0] != 3 {
		t.Fatalf("drained row aliases caller memory: %+v", rows[0])
	}
}

// TestBufferAppendAmortizesAllocations pins the flat staging: an append
// allocates only when a shard's buffers grow — well under once per fact —
// and a drained batch's rows, rows of other shapes among them, are not
// disturbed by the appends that follow the drain.
func TestBufferAppendAmortizesAllocations(t *testing.T) {
	b := NewBuffer(DefaultShards)
	refs, meas := row(7)
	const n = 4096
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			b.Append(refs, meas)
		}
	})
	if perAppend := allocs / n; perAppend >= 1 {
		t.Fatalf("%.2f allocations per Append, want fewer than 1", perAppend)
	}
	b.Drain()

	b.Append([]mdm.ValueID{1, 2, 3}, []float64{4})
	b.Append(nil, []float64{5, 6})
	for i := 0; i < 2*DefaultShards; i++ {
		b.Append(row(i))
	}
	batch := b.Drain()
	for i := 0; i < n; i++ {
		b.Append([]mdm.ValueID{-1, -1, -1}, []float64{-1, -1})
	}
	if len(batch) != 2+2*DefaultShards {
		t.Fatalf("drained %d rows, want %d", len(batch), 2+2*DefaultShards)
	}
	seen := 0
	for _, r := range batch {
		switch {
		case len(r.Refs) == 3 && len(r.Meas) == 1:
			if r.Refs[0] != 1 || r.Refs[2] != 3 || r.Meas[0] != 4 {
				t.Fatalf("odd-shaped row came back as %+v", r)
			}
			seen++
		case len(r.Refs) == 0 && len(r.Meas) == 2:
			if r.Meas[0] != 5 || r.Meas[1] != 6 {
				t.Fatalf("refs-less row came back as %+v", r)
			}
			seen++
		default:
			want, wantMeas := row(int(r.Meas[0]))
			if len(r.Refs) != len(want) || r.Refs[0] != want[0] || r.Meas[0] != wantMeas[0] {
				t.Fatalf("row came back as %+v, want %v %v", r, want, wantMeas)
			}
		}
		if cap(r.Refs) != len(r.Refs) || cap(r.Meas) != len(r.Meas) {
			t.Fatalf("row %+v has spare capacity reaching into its neighbour", r)
		}
	}
	if seen != 2 {
		t.Fatalf("found %d of the 2 odd-shaped rows", seen)
	}
}

// TestDrainKeepsShardCapacity: a shard goes on after a drain with fresh
// buffers sized by what it drained, so a steady stream of 64 appends and
// a drain on the default shards costs the drain's three buffers per shard
// and its row list — 25 allocations — where buffers regrown from empty
// after every drain cost 97. The drained rows stay as they were while the
// next round appends (TestBufferAppendAmortizesAllocations checks the
// same after a drain of mixed shapes). A burst's size lasts one drain:
// the drain after a quiet round leaves the quiet round's sizes.
func TestDrainKeepsShardCapacity(t *testing.T) {
	b := NewBuffer(DefaultShards)
	var last []Row
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 64; i++ {
			b.Append(row(i))
		}
		if last != nil && last[0].Refs[1] != 2*last[0].Refs[0] {
			t.Fatalf("a drained row changed under the next appends: %+v", last[0])
		}
		last = b.Drain()
	})
	if allocs > 32 {
		t.Fatalf("64 appends and a drain allocated %.0f times, want at most 32", allocs)
	}
	t.Logf("64 appends and a drain on %d shards: %.0f allocations", DefaultShards, allocs)

	for i := 0; i < 64*1024; i++ {
		b.Append(row(i))
	}
	b.Drain()
	for i := 0; i < 64; i++ {
		b.Append(row(i))
	}
	b.Drain()
	for i, s := range b.shards {
		if cap(s.ends) > 64 || cap(s.refs) > 2*64 || cap(s.meas) > 2*64 {
			t.Errorf("shard %d kept capacity %d rows, %d refs, %d measures from a burst; want at most a quiet round's", i, cap(s.ends), cap(s.refs), cap(s.meas))
		}
	}
}

func TestBufferConcurrentAppendDrain(t *testing.T) {
	b := NewBuffer(8)
	const producers, perProducer = 8, 200
	var wg sync.WaitGroup
	var drained []Row
	var mu sync.Mutex
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			rows := b.Drain()
			mu.Lock()
			drained = append(drained, rows...)
			mu.Unlock()
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perProducer; i++ {
				refs, meas := row(p*perProducer + i)
				b.Append(refs, meas)
			}
		}(p)
	}
	pwg.Wait()
	close(stop)
	wg.Wait()
	rest := b.Drain()
	if total := len(drained) + len(rest); total != producers*perProducer {
		t.Fatalf("drained %d rows total, want %d", total, producers*perProducer)
	}
}

func TestCompactorFoldsEverything(t *testing.T) {
	b := NewBuffer(4)
	var mu sync.Mutex
	folded := 0
	c := StartCompactor(b, Config{MinBatch: 1}, func(rows []Row) error {
		mu.Lock()
		folded += len(rows)
		mu.Unlock()
		return nil
	})
	const n = 500
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				refs, meas := row(p*n/4 + i)
				b.Append(refs, meas)
			}
		}(p)
	}
	wg.Wait()
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if folded != n {
		t.Fatalf("folded %d rows, want %d", folded, n)
	}
	if b.Pending() != 0 {
		t.Fatalf("Pending after Stop = %d", b.Pending())
	}
}

func TestCompactorMinBatchHoldsUntilStop(t *testing.T) {
	b := NewBuffer(2)
	var mu sync.Mutex
	var batches []int
	c := StartCompactor(b, Config{MinBatch: 100}, func(rows []Row) error {
		mu.Lock()
		batches = append(batches, len(rows))
		mu.Unlock()
		return nil
	})
	for i := 0; i < 3; i++ {
		refs, meas := row(i)
		b.Append(refs, meas)
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	// Below MinBatch nothing folds until the final drain on Stop.
	if len(batches) != 1 || batches[0] != 3 {
		t.Fatalf("batches = %v, want one final batch of 3", batches)
	}
}

// TestDoorbellRingsAtMinBatch: while a compactor runs, an append below
// its MinBatch does not ring — the compactor would wake only to find too
// little pending and sleep again — and the append that reaches MinBatch
// does. With no compactor running every append rings, so facts buffered
// before a start (or after a stop) leave a wake queued for the next one.
func TestDoorbellRingsAtMinBatch(t *testing.T) {
	const minBatch = 64
	b := NewBuffer(2)
	b.Append(row(0))
	if len(b.doorbell) != 1 {
		t.Fatal("an append with no compactor running did not ring")
	}
	folded := make(chan int, 4) // one slot per fold this test can cause
	fold := func(rows []Row) error {
		folded <- len(rows)
		return nil
	}
	// The queued wake reaches the new compactor, which finds one fact
	// against a MinBatch of one.
	c := StartCompactor(b, Config{MinBatch: 1}, fold)
	if got := <-folded; got != 1 {
		t.Fatalf("the fact buffered before the start folded as a batch of %d, want 1", got)
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}

	c = StartCompactor(b, Config{MinBatch: minBatch}, fold)
	for i := 1; i < minBatch; i++ {
		b.Append(row(i))
		if len(b.doorbell) != 0 {
			t.Fatalf("append %d of %d rang the doorbell", i, minBatch)
		}
	}
	if len(folded) != 0 {
		t.Fatalf("folded %d facts below MinBatch", <-folded)
	}
	b.Append(row(minBatch))
	if got := <-folded; got != minBatch {
		t.Fatalf("reaching MinBatch folded %d facts, want %d", got, minBatch)
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if len(folded) != 0 {
		t.Fatalf("Stop folded %d facts out of an empty buffer", <-folded)
	}
	b.Append(row(0))
	if len(b.doorbell) != 1 {
		t.Fatal("an append after Stop did not ring")
	}
}

func TestCompactorReportsFirstFoldError(t *testing.T) {
	b := NewBuffer(1)
	calls := 0
	done := make(chan struct{}, 4)
	c := StartCompactor(b, Config{MinBatch: 1}, func(rows []Row) error {
		calls++
		done <- struct{}{}
		if calls == 1 {
			return fmt.Errorf("poisoned batch %d", calls)
		}
		return nil
	})
	refs, meas := row(1)
	b.Append(refs, meas)
	<-done // first batch folded (and failed)
	b.Append(refs, meas)
	<-done // a later batch still folds
	if err := c.Stop(); err == nil || err.Error() != "poisoned batch 1" {
		t.Fatalf("Stop error = %v, want the first fold failure", err)
	}
	if calls < 2 {
		t.Fatalf("compactor stopped folding after an error (calls=%d)", calls)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.MinBatch != 1 {
		t.Fatalf("defaults = %+v", cfg)
	}
	cfg = Config{MinBatch: 7}.WithDefaults()
	if cfg.MinBatch != 7 {
		t.Fatalf("explicit config overwritten: %+v", cfg)
	}
}
