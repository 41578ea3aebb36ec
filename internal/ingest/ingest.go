// Package ingest provides the streaming side of the warehouse: sharded
// append-only delta buffers that absorb out-of-order fact arrivals
// without touching the served snapshot, and a background compactor that
// periodically drains the buffered deltas and folds them into the
// subcube DAG through the warehouse's sync-carrying commit path.
//
// The package is deliberately ignorant of warehouse semantics: a Row is
// an opaque (refs, meas) pair, and the fold callback owns validation,
// late-arrival classification and the actual commit. That keeps the
// buffer lock-order trivial — shard mutexes here are always leaves,
// never held across the fold — and keeps evaluation time out of the
// package entirely (TestNoAmbientClock scans it).
package ingest

import (
	"sync"
	"sync/atomic"

	"dimred/internal/mdm"
)

// Row is one buffered fact: bottom-granularity dimension references and
// the measure vector. Append deep-copies both, so a Row never aliases
// caller memory; the rows of one drained batch are slices of that batch's
// own buffers, which no later Append writes.
type Row struct {
	Refs []mdm.ValueID
	Meas []float64
}

// Config tunes a Compactor.
type Config struct {
	// MinBatch is the minimum number of buffered facts before the
	// compactor folds (the final fold on Stop drains regardless). Zero
	// or negative selects the default of 1 — fold as soon as anything
	// is buffered; the fold itself group-commits whatever accumulated
	// while the previous fold held the writer lock.
	MinBatch int
}

// DefaultShards is the shard count NewBuffer uses when given none: more
// shards mean less contention between concurrent producers.
const DefaultShards = 8

// WithDefaults returns cfg with unset fields replaced by defaults.
func (cfg Config) WithDefaults() Config {
	if cfg.MinBatch <= 0 {
		cfg.MinBatch = 1
	}
	return cfg
}

// shard is one append lane: its rows' refs and measures end to end in
// two flat buffers, and per row where each ends, so an append allocates
// only when a buffer grows. All guarded by mu.
type shard struct {
	mu   sync.Mutex
	refs []mdm.ValueID
	meas []float64
	ends []rowEnd
}

// rowEnd is where one buffered row ends in its shard's flat buffers.
type rowEnd struct{ refs, meas int }

// Buffer is a sharded append-only delta buffer. Appends pick a shard
// round-robin and hold only that shard's mutex; Drain swaps every
// shard's buffers out under its lock and slices them into rows, so
// producers are never blocked behind a fold. The doorbell wakes the compactor without
// ever blocking an appender.
type Buffer struct {
	shards  []*shard
	next    atomic.Uint64
	pending atomic.Int64
	// ringAt is the pending count from which an append rings the
	// doorbell: the running compactor's MinBatch, so appends it would
	// only sleep on again do not wake it. Zero, while no compactor runs,
	// rings on every append, which leaves a wake queued for the next one
	// to start.
	ringAt   atomic.Int64
	doorbell chan struct{}
}

// NewBuffer creates a buffer with the given shard count (<=0 selects
// DefaultShards).
func NewBuffer(shards int) *Buffer {
	if shards <= 0 {
		shards = DefaultShards
	}
	b := &Buffer{
		shards:   make([]*shard, shards),
		doorbell: make(chan struct{}, 1),
	}
	for i := range b.shards {
		b.shards[i] = &shard{}
	}
	return b
}

// Append buffers one fact. The refs and meas slices are copied, so the
// caller may reuse them. Safe for any number of concurrent producers.
func (b *Buffer) Append(refs []mdm.ValueID, meas []float64) {
	s := b.shards[b.next.Add(1)%uint64(len(b.shards))]
	s.mu.Lock()
	s.refs = append(s.refs, refs...)
	s.meas = append(s.meas, meas...)
	s.ends = append(s.ends, rowEnd{refs: len(s.refs), meas: len(s.meas)})
	s.mu.Unlock()
	if b.pending.Add(1) >= b.ringAt.Load() {
		b.ring()
	}
}

// ring wakes the compactor if it is idle; a full doorbell means a wake
// is already queued, so the append never blocks.
func (b *Buffer) ring() {
	select {
	case b.doorbell <- struct{}{}:
	default:
	}
}

// Drain atomically swaps out every shard's buffered rows and returns
// them in shard order. Rows appended concurrently with a Drain land in
// either this batch or the next, never in both and never lost. Each shard
// goes on with fresh buffers sized by what it drained, so a steady stream
// appends without regrowing them from empty after every drain, an empty
// shard allocates nothing, and a burst's size does not outlast the next
// drain; the drained buffers belong to the batch alone.
func (b *Buffer) Drain() []Row {
	// Pending is what a drain usually finds; rows in flight just grow out.
	out := make([]Row, 0, max(b.pending.Load(), 0))
	for _, s := range b.shards {
		s.mu.Lock()
		refs, meas, ends := s.refs, s.meas, s.ends
		s.refs = make([]mdm.ValueID, 0, len(refs))
		s.meas = make([]float64, 0, len(meas))
		s.ends = make([]rowEnd, 0, len(ends))
		s.mu.Unlock()
		var from rowEnd
		for _, to := range ends {
			// Capacity capped: appending to one row must not run into the next.
			out = append(out, Row{Refs: refs[from.refs:to.refs:to.refs], Meas: meas[from.meas:to.meas:to.meas]})
			from = to
		}
	}
	b.pending.Add(int64(-len(out)))
	return out
}

// Pending reports the number of buffered facts not yet drained. It is a
// monitoring value: concurrent appends and drains may skew it by the
// rows in flight.
func (b *Buffer) Pending() int64 { return b.pending.Load() }

// Compactor folds a Buffer's deltas in the background. One goroutine
// waits on the buffer's doorbell and, once at least MinBatch facts have
// accumulated, drains the buffer and hands the batch to the fold
// callback. Folds are strictly sequential, so the callback may take the
// warehouse writer lock without further coordination; facts that arrive
// while a fold is running simply accumulate and group-commit in the
// next round.
type Compactor struct {
	buf      *Buffer
	fold     func([]Row) error
	minBatch int
	stop     chan struct{}
	done     chan struct{}

	// firstErr is the first fold failure; later batches still fold (one
	// bad batch must not wedge the stream). Only the compactor goroutine
	// writes it, and Stop reads it after done is closed, which orders the
	// two: it needs no mutex.
	firstErr error
}

// StartCompactor spawns the background compaction loop over buf. The
// fold callback receives each drained batch in arrival order (per
// shard) and is never called concurrently with itself. Call Stop
// exactly once to drain the final batch and join the goroutine.
func StartCompactor(buf *Buffer, cfg Config, fold func([]Row) error) *Compactor {
	cfg = cfg.WithDefaults()
	c := &Compactor{
		buf:      buf,
		fold:     fold,
		minBatch: cfg.MinBatch,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	buf.ringAt.Store(int64(cfg.MinBatch))
	// Detached on purpose: the compaction loop runs for the warehouse
	// lifetime; Stop joins it on the done channel before the warehouse
	// closes (TestGoroutinesJoin counts it gone).
	go c.loop()
	return c
}

// loop is the compactor goroutine: wait for the doorbell, fold when
// enough is buffered, and on stop fold whatever remains before
// signalling done.
func (c *Compactor) loop() {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			c.foldNow()
			return
		case <-c.buf.doorbell:
			if c.buf.Pending() >= int64(c.minBatch) {
				c.foldNow()
			}
		}
	}
}

// foldNow drains and folds one batch, recording the first failure. A
// batch whose fold fails is not re-queued: the fold callback owns its
// accounting (the warehouse counts it in IngestRejected).
func (c *Compactor) foldNow() {
	rows := c.buf.Drain()
	if len(rows) == 0 {
		return
	}
	if err := c.fold(rows); err != nil && c.firstErr == nil {
		c.firstErr = err
	}
}

// Stop signals the loop, waits for the final fold to finish, and
// returns the first fold error (nil when every batch folded cleanly).
// Stop must be called exactly once.
func (c *Compactor) Stop() error {
	close(c.stop)
	<-c.done
	c.buf.ringAt.Store(0)
	return c.firstErr
}
