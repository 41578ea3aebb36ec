// Package warehouse is the top-level facade of the library: a
// dimensional data warehouse whose detail data is gradually and
// automatically reduced under a specification, exactly the system the
// paper describes end to end — load click (or any) facts, let time pass,
// and query the warehouse at any granularity while storage shrinks and
// the specified summaries remain exact.
package warehouse

import (
	"fmt"
	"maps"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dimred/internal/caltime"
	"dimred/internal/ingest"
	"dimred/internal/mdm"
	"dimred/internal/obs"
	"dimred/internal/query"
	"dimred/internal/spec"
	"dimred/internal/storage"
	"dimred/internal/subcube"
	"dimred/internal/views"
)

// Warehouse combines a reduction specification, its subcube realization
// and the synchronization schedule behind a single API.
//
// A Warehouse is safe for concurrent use, with a lock-free read path:
// it keeps two cube-set sides and publishes one of them, together with
// the clock it was built at, as an immutable snapshot behind an atomic
// pointer. A query that a materialized view answers reads only the
// snapshot's own fields and its view set, which nothing writes once they
// are published, so it pins nothing; any other query pins the snapshot's
// side on a counter and runs against it without taking any lock. Neither
// can observe a half-applied specification or a mid-synchronization cube.
// Writers (loads, clock advances, specification updates) serialize on wmu,
// apply each operation once, to the unpublished working side, publish it
// with one pointer swap, and then bring the other side level by copy,
// whichever copy is smaller: wait for readers pinned to the retired side
// to drain and copy into it the rows the operation wrote, or — when the
// operation moved so many rows that a copy of its whole result is cheaper
// (recloneRule) — drop the retired side and clone the published one.
type Warehouse struct {
	env *spec.Env
	// bottom is the schema's bottom granularity, the one every loaded or
	// ingested fact must be at; Ingest reads it with no lock.
	bottom mdm.Granularity
	// met is the engine metric set, shared with both cube-set sides so
	// every layer records into one instance.
	met *obs.Metrics
	// pins counts the readers pinned to each side; a commit drains the
	// retired side's count to zero before levelling writes that side.
	pins [2]pinCount
	// cur is the published snapshot. Written only under wmu; read by
	// anyone.
	cur atomic.Pointer[snapshot]
	// shapes accumulates view-eligible query shapes from the lock-free
	// read path (an atomic add to the counter a query plan holds, or a
	// sync.Map probe besides for a prepared query); the greedy view
	// selector reads the trace on each refresh.
	shapes obs.ShapeStats
	// buf is the streaming-ingest delta buffer, created once at Open and
	// never replaced: Ingest appends to it without any warehouse lock,
	// and compaction drains it before taking wmu (shard mutexes are
	// leaves in the lock order).
	buf *ingest.Buffer
	// plans is the plan table (planFor): Query, QueryWith and QueryTraced
	// find a text's plan with one atomic load and one map probe.
	plans atomic.Pointer[planTable]

	// wmu serializes writers and guards the fields below.
	wmu sync.Mutex
	// working is the unpublished side the next operation applies to.
	working *subcube.CubeSet
	// reclone picks, per commit, between levelling the retired side and
	// cloning the published one. It is recloneRule except in tests, which
	// force either arm to show the choice is pure cost.
	reclone func(applied, left int) bool
	// now is the warehouse clock and synced whether any synchronization
	// has run.
	now    caltime.Day
	synced bool
	// viewsOn enables materialized rollup views; vcfg bounds them.
	// Both only steer what sync-carrying commits build — the read path
	// learns about views exclusively through the published snapshot.
	viewsOn bool
	vcfg    views.Config
	// comp is the running background compactor, nil when streaming
	// ingest is stopped.
	comp *ingest.Compactor
}

// pinCount is one side's count of pinned readers. With 56 bytes on each
// side of it, the 8-byte counter is alone on its 64-byte cache line, so
// readers of one side never contend with the other side or with the
// fields around it.
type pinCount struct {
	_ [56]byte
	n atomic.Int64
	_ [56]byte
}

// snapshot is one published read state: a cube-set side and the clock
// it was built at. Nothing writes a snapshot's own fields or its view set
// after publish, and every publish allocates a fresh one, so a view
// answer reads them without a pin. Its cube set is another matter: once
// the snapshot retires, a commit may level that side, so only a reader
// that pinned the side may dereference cubes.
// TestPublishedSnapshotsNeverChange holds every writer and reader to
// that.
type snapshot struct {
	cubes *subcube.CubeSet
	now   caltime.Day
	side  uint32 // index into Warehouse.pins of the cube set
	// gen is the cube set's specification generation, stamped at publish
	// so that a view answer never reads the cube set.
	gen uint64
	// views is the materialized rollup-view set frozen into this
	// snapshot, nil when none are published. A view set whose recorded
	// specification generation (or build clock) disagrees with the
	// snapshot's is stale and is skipped, never served.
	views *views.Set
}

// Open creates a warehouse for the given environment and initial action
// set (which must form a valid — Growing and NonCrossing —
// specification).
func Open(env *spec.Env, actions ...*spec.Action) (*Warehouse, error) {
	sp, err := spec.New(env, actions...)
	if err != nil {
		return nil, err
	}
	cs, err := subcube.New(sp)
	if err != nil {
		return nil, err
	}
	w := &Warehouse{
		env:     env,
		bottom:  env.Schema.BottomGranularity(),
		met:     cs.Metrics(),
		buf:     ingest.NewBuffer(ingest.DefaultShards),
		reclone: recloneRule,
	}
	w.working = cs.Clone()
	w.cur.Store(&snapshot{cubes: cs, gen: sp.Generation()})
	w.plans.Store(&planTable{})
	return w, nil
}

// pin returns the published snapshot with its side pinned against
// levelling; the caller must unpin it when done. The recheck closes the
// publish race: a reader that pinned a side just as a writer swapped
// the pointer retries, so once drainLocked sees the side's count at zero
// the writer knows no reader still holds (or can still acquire) the
// retired snapshot. A count, unlike a read lock, lets a pinned reader pin
// again while a drain waits.
func (w *Warehouse) pin() *snapshot {
	for {
		if s := w.cur.Load(); w.tryPin(s) {
			return s
		}
	}
}

// tryPin pins s's side and reports whether s is still the published
// snapshot. When it is not, it undoes the pin and reports false: the
// side may be draining for a levelling commit, which must not wait on a
// reader that would read a retired snapshot.
func (w *Warehouse) tryPin(s *snapshot) bool {
	w.pins[s.side].n.Add(1)
	if w.cur.Load() == s {
		return true
	}
	w.pins[s.side].n.Add(-1)
	return false
}

// unpin releases a pin that pin returned s under.
func (w *Warehouse) unpin(s *snapshot) { w.pins[s.side].n.Add(-1) }

// commitOp is one mutation of a cube set. It reports how many rows it
// inserted or moved — the size of what levelling the other side would
// have to copy.
type commitOp func(cs *subcube.CubeSet) (applied int, err error)

// recloneFactor is the one constant of the copy rule, set against two
// per-row costs measured on a 20 k-row warehouse: levelling copies a row
// the commit appended for 155-260 ns (its columns plus a cell-index put; a
// row merged into costs 22 ns, a row moved about one of each), cloning
// copies a row the commit left for 28-63 ns (two slice copies per cell
// index beside the columns) — a ratio of 2.5 to 9, which brackets 4. 4
// is also where a store's journal gives up (a quarter of its rows
// touched), so past it levelling would clone the written cubes whole
// anyway, and the clone needs no drain and frees the pre-fold arrays at
// publish. EXPERIMENTS.md "The reclone rule's constant" has the numbers.
const recloneFactor = 4

// recloneRule reports whether a commit that applied that many rows and
// left that many live is cheaper to level by a copy of everything it left
// than by a copy of what it wrote.
func recloneRule(applied, left int) bool {
	return applied > 0 && applied*recloneFactor >= left
}

// commitLocked runs one mutation through the left-right protocol. Plain
// mutating commits publish without views: any views the previous
// snapshot held are invalidated by dropping them from the new one (the
// mutation may have changed the facts or the specification generation
// they summarize), and the next sync-carrying commit rebuilds them.
func (w *Warehouse) commitLocked(op commitOp) error {
	return w.commitWithViewsLocked(op, false)
}

// commitWithViewsLocked runs one mutation through the left-right
// protocol: apply it — once — to the working side, optionally materialize
// the selected rollup views from the post-op working side (so the
// published snapshot and its views are one atomic unit — readers never
// observe a half-built view), publish, and level the other side by copy.
// Small commits drain readers off the retired side, copy into it the rows
// the working side journaled while op wrote it (CubeSet.LevelFrom) and
// adopt it as the next working side. A commit the reclone rule picks
// leaves the retired side where it stands — readers still pinned to it
// finish on it, nobody writes it again, so nothing drains — and the next
// working side is a clone of the published one. Either way the sides are
// equal because one was copied from the other, not because op ran twice.
// An error from op publishes nothing and rebuilds the working side from a
// clone of the published one, restoring the two-side invariant.
//
// The copy into the retired side is the protocol's one write after a
// publish, and it is sound only because that side is drained of readers
// first; nothing else here may write a cube set once it is published.
func (w *Warehouse) commitWithViewsLocked(op commitOp, refresh bool) error {
	applied, err := op(w.working)
	if err != nil {
		w.rebuildWorkingLocked()
		return err
	}
	var vs *views.Set
	if refresh && w.viewsOn {
		vs = w.buildViewsLocked()
	}
	published := w.working
	retired := w.publishLocked(published, 1-w.cur.Load().side, vs)
	w.met.ViewBytes.Set(vs.Bytes())
	if w.reclone(applied, published.TotalRows()) {
		w.met.SnapshotReclones.Inc()
		w.rebuildWorkingLocked()
		return nil
	}
	w.drainLocked(retired)
	var rows int
	w.working, rows = retired.cubes.LevelFrom(published)
	w.met.SnapshotLevelledRows.Add(int64(rows))
	return nil
}

// publishLocked swaps in, as the published snapshot, cubes on the given
// side with the view set vs materialized from them (nil invalidates any
// previously published views) at the writer's clock, and returns the
// snapshot it replaced, which readers may still be pinned to. The new
// snapshot carries the cubes' specification generation, read here, under
// wmu, where the cube set is the writer's or already published. A commit
// publishes the working side on the other side; a clock-only advance
// republishes the published cubes on their own side, so nothing drains.
func (w *Warehouse) publishLocked(cubes *subcube.CubeSet, side uint32, vs *views.Set) *snapshot {
	old := w.cur.Load()
	w.cur.Store(&snapshot{cubes: cubes, now: w.now, side: side, gen: cubes.Spec().Generation(), views: vs})
	w.met.SnapshotPublishes.Inc()
	return old
}

// drainLocked waits for readers pinned to the retired snapshot's side
// to finish, yielding the processor between polls; afterwards the caller
// owns its cube set exclusively. A side dropped by an earlier reclone may
// still have readers pinned to it: they only lengthen the wait, since a
// drain covers every pin on the side.
func (w *Warehouse) drainLocked(retired *snapshot) {
	w.met.SnapshotsRetained.Set(1)
	pins := &w.pins[retired.side].n
	if pins.Load() != 0 {
		w.met.SnapshotDrainWaits.Inc()
		for pins.Load() != 0 {
			runtime.Gosched()
		}
	}
	w.met.SnapshotsRetained.Set(0)
}

// rebuildWorkingLocked discards the working side and reclones it from
// the published snapshot: after a failed operation left it (or could
// have left it) diverged, and after a commit that wrote more than a copy
// of its result costs.
func (w *Warehouse) rebuildWorkingLocked() {
	w.working = w.cur.Load().cubes.Clone()
}

// buildViewsLocked selects rollup granularities from the observed
// query-shape trace (greedy benefit per byte under the configured
// budget) and materializes them from the post-op working side, before
// it is published. A view build scans cubes with the same machinery as a
// user query but is not one: it moves ViewBuilds and ViewBytes, never the
// query counters. A build problem yields a nil set (queries fall back to
// the base subcubes), never a failed commit.
func (w *Warehouse) buildViewsLocked() *views.Set {
	layout := storage.Layout{DimCols: w.env.Schema.NumDims(), MeasCols: len(w.env.Schema.Measures)}
	cands := views.Candidates(w.env, w.shapes.Counts(), int64(w.working.TotalRows()), layout)
	picked := views.Select(cands, w.vcfg)
	if len(picked) == 0 {
		return nil
	}
	return views.Build(w.env, w.working, picked, w.now, w.vcfg, w.met)
}

// syncLocked runs one timed synchronization round through the
// left-right protocol.
func (w *Warehouse) syncLocked() error { return w.syncWithLocked(nil) }

// syncWithLocked is syncLocked with an optional preparatory operation
// folded into the same commit: prep's mutations and the synchronization
// that folds them publish as one snapshot, so readers never observe the
// intermediate (e.g. a bulk-loaded but not yet reduced) state.
func (w *Warehouse) syncWithLocked(prep commitOp) error {
	clk := w.met.Clock()
	start := clk.Now()
	t := w.now
	// Sync-carrying commits are where views refresh: the cube set is
	// synchronized at the commit's clock, so the materialized rollups
	// and the published snapshot agree on NOW and spec generation.
	err := w.commitWithViewsLocked(func(cs *subcube.CubeSet) (int, error) {
		applied := 0
		if prep != nil {
			var err error
			if applied, err = prep(cs); err != nil {
				return 0, err
			}
		}
		moved, err := cs.Sync(t)
		return applied + moved, err
	}, true)
	if err != nil {
		return err
	}
	w.met.Syncs.Inc()
	w.met.SyncDuration.Observe(clk.Since(start))
	w.synced = true
	return nil
}

// Env returns the schema environment.
func (w *Warehouse) Env() *spec.Env { return w.env }

// Spec returns the active reduction specification (the published
// side's; specification updates swap in a new snapshot). It reads the
// spec off a pinned snapshot, because ApplySpec rewrites the spec field
// of a side once it is levelled and becomes the working side; the spec it
// returns is never written, because InsertActions and DeleteActions edit
// a clone.
func (w *Warehouse) Spec() *spec.Spec {
	s := w.pin()
	defer w.unpin(s)
	return s.cubes.Spec()
}

// Cubes returns the published subcube realization, for inspection. It
// is not pinned: the next commit levels this side in place (LevelFrom)
// to make it the working side, so the result may only be read until that
// commit begins, and a read that overlaps a commit races with the writer.
// Mutating it races with lock-free readers at any time. To read beside a
// writer, use the pinned methods: Materialize, Stats and Metrics.
func (w *Warehouse) Cubes() *subcube.CubeSet { return w.cur.Load().cubes }

// Now returns the warehouse clock.
func (w *Warehouse) Now() caltime.Day { return w.cur.Load().now }

// AdvanceTo moves the clock to t (the clock never runs backwards) and
// synchronizes the subcubes when the move crosses a significant-period
// boundary. Section 7.2: subcubes get un-synchronized only when time
// passes or data is bulk-loaded, and it suffices to synchronize on every
// bulk load and "at least once per significant time period, the
// second-lowest granularity at which the NOW-variable is used in an
// action" — then the stored reduction is never more than one significant
// period behind the clock: the storage it saves, the reduced region Late
// checks a fact against, and the views, rebuilt only by a
// sync-carrying commit, follow the clock that closely. A query needs no
// schedule: an un-synchronized cube set answers as a synchronized one
// would at any staleness (subcube.CubeSet.Evaluate). A clock-only advance republishes the snapshot so queries evaluate NOW
// at the new clock; one that leaves the clock where it is publishes
// nothing. Views carry over a clock-only advance unchanged: their build
// clock now disagrees with the snapshot's, so the freshness rule skips
// them until the next sync-carrying commit rebuilds them at the new NOW
// (an explicit QueryAt back at their build clock may still use them: the
// cubes are untouched, so they are exact there).
func (w *Warehouse) AdvanceTo(t caltime.Day) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	w.met.Advances.Inc()
	if t >= w.now {
		prev := w.now
		w.now = t
		// The significant period (Section 7.2) of the actions live now;
		// while none is NOW-relative, time alone never un-synchronizes
		// the cubes.
		unit, timed := w.working.Spec().SignificantPeriod()
		if timed && !(w.synced && caltime.PeriodOf(prev, unit) == caltime.PeriodOf(t, unit)) {
			return w.syncLocked()
		}
	}
	if old := w.cur.Load(); old.now != w.now {
		w.publishLocked(old.cubes, old.side, old.views)
	}
	return nil
}

// Sync forces a synchronization round at the current clock, outside the
// significant-period cadence.
func (w *Warehouse) Sync() error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return w.syncLocked()
}

// EnableViews turns on the materialized rollup-view lattice under the
// given budget and refreshes it immediately from the query shapes
// observed so far. Until queries have recorded shapes there is nothing
// to select, so a typical sequence is: enable, run (or replay) the
// workload, and let the next sync — or an explicit RefreshViews —
// materialize the winners.
func (w *Warehouse) EnableViews(cfg views.Config) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	w.viewsOn = true
	w.vcfg = cfg
	return w.commitWithViewsLocked(noopOp, true)
}

// DisableViews turns the view lattice off and publishes a view-free
// snapshot; recorded query shapes are kept for a later re-enable.
func (w *Warehouse) DisableViews() {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	w.viewsOn = false
	_ = w.commitLocked(noopOp)
}

// RefreshViews re-selects and rebuilds the materialized views from the
// current query-shape trace at the current clock. A no-op when views
// are disabled.
func (w *Warehouse) RefreshViews() error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if !w.viewsOn {
		return nil
	}
	return w.commitWithViewsLocked(noopOp, true)
}

// noopOp commits nothing: the left-right protocol still publishes a
// fresh snapshot, which is how view enable/refresh/disable reach
// readers without a cube mutation.
func noopOp(*subcube.CubeSet) (int, error) { return 0, nil }

// ViewStats reports the published view set: how many views are live
// and the modeled bytes they retain. A view set is never written once
// published, so it reads it without a pin.
func (w *Warehouse) ViewStats() (count int, bytes int64) {
	vs := w.cur.Load().views
	return vs.Len(), vs.Bytes()
}

// Load ingests one bottom-granularity fact. A fact whose day is
// already inside a reduced region — the specification aggregates (or
// deletes) its cell as of the last synchronization — is late: leaving
// it at the bottom until the next scheduled sync would let queries
// observe it at a granularity the Growing invariant says no longer
// exists there, so the commit carries a synchronization and the fact
// lands at Cell(f, t)'s granularity immediately, merged distributively.
func (w *Warehouse) Load(refs []mdm.ValueID, meas []float64) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	// Insert's own check, made before the commit: an op that fails costs a
	// re-clone of the working side, and a refused fact has written nothing.
	if err := w.env.Schema.CheckFact(refs, meas, w.bottom); err != nil {
		return fmt.Errorf("warehouse: Load: %w", err)
	}
	op := func(cs *subcube.CubeSet) (int, error) {
		return 1, cs.Insert(refs, meas)
	}
	var err error
	if w.working.Late(refs) {
		err = w.syncWithLocked(op)
	} else {
		err = w.commitLocked(op)
	}
	if err != nil {
		return err
	}
	w.met.FactsLoaded.Inc()
	return nil
}

// LoadBatch ingests facts and synchronizes, the paper's bulk-load
// discipline. The batch and its synchronization commit as one
// publication: queries see either the pre-batch warehouse or the
// reduced post-sync one — never the loaded-but-unfolded batch — and a
// row that fails validation publishes nothing.
func (w *Warehouse) LoadBatch(rows func(load func(refs []mdm.ValueID, meas []float64) error) error) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	// The callback's rows go into the unpublished working side as it
	// yields them, each checked once, by InsertBatch: arity, value ids,
	// bottom granularity. A batch that fails there — a refused row, even
	// one whose error the callback drops, an error from the callback, or a
	// panic in it — has written only the working side, which is rebuilt
	// from a clone of the published one, as after every failed op.
	inserted := false
	defer func() {
		if !inserted {
			w.rebuildWorkingLocked()
		}
	}()
	n, err := w.working.InsertBatch(rows)
	if err != nil {
		return err
	}
	inserted = true
	// An empty batch publishes nothing: no sync, no snapshot churn, no
	// view rebuild — and no BatchLoads tick, so the metrics pin the
	// short-circuit.
	if n == 0 {
		return nil
	}
	w.met.BatchLoads.Inc()
	// The batch is already in the working side; the commit folds it.
	err = w.syncWithLocked(func(*subcube.CubeSet) (int, error) { return n, nil })
	if err != nil {
		return err
	}
	w.met.FactsLoaded.Add(int64(n))
	return nil
}

// planLimit bounds the plan table. A store that finds the table holding
// this many texts starts a new one, so a stream of distinct texts costs
// at most one parse each and never grows the table past the bound.
const planLimit = 1024

// plan is one query text parsed: the query and, when it is view-eligible,
// the counter of its shape in the view selector's trace, so that a read
// through the plan records its shape with one atomic add. Every reader
// that asks the text shares it, so nothing may write through it: no
// answer aliases q.Target (mdm.MO.Floors hands out a copy), and QueryWith
// sets its approaches on its own copy of q.
type plan struct {
	q     subcube.Query
	shape *obs.Counter // nil when q is not view-eligible
}

// planTable maps query texts to their plans. A published table is never
// written; storePlan publishes a copy.
type planTable map[string]*plan

// planFor returns the plan of src: the stored one, or else a fresh parse,
// which it stores. A parse depends only on the schema and the text — a
// predicate keeps value names and resolves them when it is prepared at
// the query's clock — so a stored plan holds across specification
// changes, dimension growth, view changes and publishes, and nothing
// invalidates it. A text that fails to parse is not stored, and returns
// the parser's error every time it is asked.
func (w *Warehouse) planFor(src string) (*plan, error) {
	if p, ok := (*w.plans.Load())[src]; ok {
		return p, nil
	}
	q, err := subcube.ParseQuery(src, w.env)
	if err != nil {
		return nil, err
	}
	p := &plan{q: q}
	if w.viewEligible(q) {
		p.shape = w.shapes.Counter(spec.EncodeGran(q.Target))
	}
	w.storePlan(src, p)
	return p, nil
}

// storePlan publishes a copy of the plan table with src's plan added, or a
// table holding only it once the current one is full. Of two readers that
// store at once, one swap fails and its plan is dropped: the text is
// parsed again the next time it is asked, and nothing is lost but that.
func (w *Warehouse) storePlan(src string, p *plan) {
	old := w.plans.Load()
	next := planTable{}
	if len(*old) < planLimit {
		next = maps.Clone(*old)
	}
	next[src] = p
	w.plans.CompareAndSwap(old, &next)
}

// Query evaluates an OLAP query (the action-specification syntax,
// e.g. "aggregate [Time.month, URL.domain] where ...") at the current
// clock, using the paper's default approaches. A text is parsed once per
// warehouse: later calls with the same text reuse its plan, so an exact
// view hit costs a table probe, a load of the published snapshot, an
// atomic add to its shape's counter and a 48-byte borrow of the view.
func (w *Warehouse) Query(src string) (*mdm.MO, error) {
	p, err := w.planFor(src)
	if err != nil {
		return nil, err
	}
	return w.query(p.q, p.shape, nil, nil)
}

// QueryWith evaluates a query with explicit selection and aggregation
// approaches (the defaults are conservative and availability). It shares
// Query's plan of the text; the approaches are not part of it.
func (w *Warehouse) QueryWith(src string, sel query.Approach, agg query.AggApproach) (*mdm.MO, error) {
	p, err := w.planFor(src)
	if err != nil {
		return nil, err
	}
	q := p.q
	q.Sel, q.Agg = sel, agg
	return w.query(q, p.shape, nil, nil)
}

// QueryAt evaluates a prepared query at an explicit time.
func (w *Warehouse) QueryAt(q subcube.Query, t caltime.Day) (*mdm.MO, error) {
	return w.query(q, nil, &t, nil)
}

// QueryTraced evaluates a query like Query, through the same plan of the
// text, and additionally returns an execution trace of the plan Query
// runs: either the view that served it, or which subcubes were consulted
// or zone-map-pruned, rows scanned versus kept per cube, and per-stage
// durations.
func (w *Warehouse) QueryTraced(src string) (*mdm.MO, *obs.Trace, error) {
	p, err := w.planFor(src)
	if err != nil {
		return nil, nil, err
	}
	return w.queryTraced(src, p.q, p.shape, nil)
}

// QueryAtTraced evaluates a prepared query at an explicit time with an
// execution trace.
func (w *Warehouse) QueryAtTraced(q subcube.Query, t caltime.Day) (*mdm.MO, *obs.Trace, error) {
	return w.queryTraced("", q, nil, &t)
}

func (w *Warehouse) queryTraced(src string, q subcube.Query, shape *obs.Counter, at *caltime.Day) (*mdm.MO, *obs.Trace, error) {
	tr := &obs.Trace{Query: src}
	mo, err := w.query(q, shape, at, tr)
	if err != nil {
		return nil, nil, err
	}
	return mo, tr, nil
}

// query is the one read path behind every Query* method: answer from the
// published snapshot's materialized views when a fresh one rolls up to the
// target, otherwise pin the published snapshot and evaluate its base
// subcubes. The view answer pins nothing, and the snapshot a miss pins may
// be a later one than the views it tried. shape is the counter of q's
// shape when a plan holds one, nil to look it up. A nil at evaluates at
// the snapshot's own clock; a non-nil tr is filled with what the
// evaluation did.
func (w *Warehouse) query(q subcube.Query, shape *obs.Counter, at *caltime.Day, tr *obs.Trace) (*mdm.MO, error) {
	if mo, ok := w.viewAnswer(w.cur.Load(), q, shape, at, tr); ok {
		return mo, nil
	}
	s := w.pin()
	defer w.unpin(s)
	t := s.now
	if at != nil {
		t = *at
	}
	if tr != nil {
		tr.At = t.String()
	}
	return s.cubes.EvaluateTraced(q, t, tr)
}

// viewEligible reports whether q is a shape the view selector learns
// from: a view-eligible query (subcube.Query.ViewEligible) whose target
// names every dimension.
func (w *Warehouse) viewEligible(q subcube.Query) bool {
	return q.ViewEligible() && len(q.Target) == w.env.Schema.NumDims()
}

// viewAnswer tries to answer q from the snapshot's materialized views
// (views.Set.Serve): the view at the target's granularity, else the
// smallest view that rolls up to it, folded, and filtered first when the
// view decides q's predicate — provided the set was built at exactly the
// evaluation clock under the snapshot's spec generation (a stale view is
// skipped, not served — the base subcubes answer instead). It reads only
// s's own fields and its view set, never s.cubes: s is not pinned, and
// its cube set may be levelled once it retires. Every view-eligible query
// records its shape into the selector's trace, hit or miss; misses are
// counted only while a view set is published, so a views-off warehouse
// pays one atomic add and nothing else. Any other query may still be
// served, but records no shape and counts no miss: the selector learns
// from predicate-free traffic only, so hits over misses stays its picks
// against what it learned. ViewFolds counts the hits that had to fold, so
// hits - folds says how often the selector had materialized the very
// shape asked. A hit fills tr (when non-nil) with the serving view, a
// single "views.Answer" stage and no cube entries: no subcube was
// scanned.
func (w *Warehouse) viewAnswer(s *snapshot, q subcube.Query, shape *obs.Counter, at *caltime.Day, tr *obs.Trace) (*mdm.MO, bool) {
	eligible := w.viewEligible(q)
	if eligible {
		if shape != nil {
			shape.Inc()
		} else {
			w.shapes.Record(spec.EncodeGran(q.Target))
		}
	}
	if s.views == nil {
		return nil, false
	}
	t := s.now
	if at != nil {
		t = *at
	}
	var start time.Time
	if tr != nil {
		start = w.met.Clock().Now()
	}
	mo, view, stored := s.views.Serve(w.env.Schema, q, t, s.gen)
	if mo == nil {
		if eligible {
			w.met.ViewMisses.Inc()
		}
		return nil, false
	}
	w.met.ViewHits.Inc()
	if !stored {
		w.met.ViewFolds.Inc()
	}
	if tr != nil {
		tr.At = t.String()
		tr.Synced = s.views.Synced()
		tr.Total = w.met.Clock().Since(start)
		tr.AddStage(obs.StageViewAnswer, tr.Total)
		tr.View, tr.ViewStored = view, stored
		tr.ResultCells = mo.Len()
	}
	return mo, true
}

// InsertActions extends the specification (Definition 3) and rebuilds
// the subcube layout for it. Queries racing with the update see either
// the old layout or the new one, never a mixture.
func (w *Warehouse) InsertActions(actions ...*spec.Action) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	t := w.now
	return w.commitLocked(func(cs *subcube.CubeSet) (int, error) {
		// A clone, as in DeleteActions: the working side's spec may be one
		// that Spec handed out while the side was published.
		sp := cs.Spec().Clone()
		if err := sp.Insert(actions...); err != nil {
			return 0, err
		}
		return applySpec(cs, sp, t)
	})
}

// DeleteActions removes actions (Definition 4: all or none, and only if
// no removed action is responsible for any current row's level) and
// rebuilds the subcube layout.
func (w *Warehouse) DeleteActions(names ...string) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	t := w.now
	return w.commitLocked(func(cs *subcube.CubeSet) (int, error) {
		// Materialize the current facts so the responsibility check of
		// Definition 4 sees the warehouse state.
		mo, err := materialize(w.env, cs)
		if err != nil {
			return 0, err
		}
		sp := cs.Spec().Clone()
		if err := sp.Delete(mo, t, names...); err != nil {
			return 0, err
		}
		return applySpec(cs, sp, t)
	})
}

// applySpec rebuilds the cube layout for sp. ApplySpec re-routes every
// live row, so that is what it applied.
func applySpec(cs *subcube.CubeSet, sp *spec.Spec, t caltime.Day) (int, error) {
	n := cs.TotalRows()
	return n, cs.ApplySpec(sp, t)
}

func materialize(env *spec.Env, cs *subcube.CubeSet) (*mdm.MO, error) {
	out := mdm.NewMO(env.Schema)
	for _, c := range cs.Cubes() {
		if _, err := c.AppendTo(out, nil); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Explain reports which actions apply to a cell at the warehouse clock
// and what level each dimension is aggregated to — the paper's "why is
// my data aggregated this way" requirement, at the facade. A cell that
// is not one value id per dimension, each one the dimension holds, is an
// error.
func (w *Warehouse) Explain(refs []mdm.ValueID) (string, error) {
	if err := w.env.Schema.CheckCell(refs, nil); err != nil {
		return "", fmt.Errorf("warehouse: Explain: %w", err)
	}
	s := w.pin()
	defer w.unpin(s)
	return s.cubes.Spec().Explain(refs, s.now), nil
}

// Materialize returns the warehouse's current contents — rows of every
// subcube, at their mixed granularities — as one multidimensional
// object, read off a pinned snapshot. It is what an export consumes:
// relstore.BuildStar lays it out as the star schema of Appendix A, Table
// 2, for printing or loading elsewhere; queries run on the subcubes, not
// on the export.
func (w *Warehouse) Materialize() (*mdm.MO, error) {
	s := w.pin()
	defer w.unpin(s)
	return materialize(w.env, s.cubes)
}

// CubeStat describes one subcube in Stats.
type CubeStat struct {
	Granularity string
	Rows        int
	Dead        int // tombstoned rows awaiting compaction
	Bytes       int64
}

// Stats is a storage report for the warehouse.
type Stats struct {
	LoadedFacts    int64
	Rows           int
	FactBytes      int64
	DimensionBytes int64
	// UnreducedBytes models what the fact data would occupy with no
	// reduction (loaded facts at the bottom layout).
	UnreducedBytes int64
	PerCube        []CubeStat
}

// Savings returns the fraction of fact storage saved versus keeping all
// detail.
func (s Stats) Savings() float64 {
	if s.UnreducedBytes == 0 {
		return 0
	}
	return 1 - float64(s.FactBytes)/float64(s.UnreducedBytes)
}

// String renders the report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "facts loaded: %d, rows stored: %d\n", s.LoadedFacts, s.Rows)
	fmt.Fprintf(&b, "fact bytes: %d (unreduced: %d, savings: %.1f%%), dimension bytes: %d\n",
		s.FactBytes, s.UnreducedBytes, 100*s.Savings(), s.DimensionBytes)
	for _, c := range s.PerCube {
		fmt.Fprintf(&b, "  %-40s rows=%-8d bytes=%d\n", c.Granularity, c.Rows, c.Bytes)
	}
	return b.String()
}

// Stats reports the warehouse's storage state.
func (w *Warehouse) Stats() Stats {
	s := w.pin()
	defer w.unpin(s)
	return w.statsOf(s)
}

// statsOf accounts the storage of one pinned snapshot. The loaded-facts
// count is the FactsLoaded metric, which a writer adds to after its
// commit publishes, so a concurrent reader may briefly see it one batch
// behind the pinned rows; the skew is monitoring-only.
func (w *Warehouse) statsOf(s *snapshot) Stats {
	st := Stats{LoadedFacts: w.met.FactsLoaded.Load()}
	layout := storage.Layout{DimCols: w.env.Schema.NumDims(), MeasCols: len(w.env.Schema.Measures)}
	st.UnreducedBytes = st.LoadedFacts * layout.RowBytes()
	for _, c := range s.cubes.Cubes() {
		st.Rows += c.Rows()
		st.FactBytes += c.Bytes()
		st.PerCube = append(st.PerCube, CubeStat{
			Granularity: w.env.Schema.GranString(c.Gran()),
			Rows:        c.Rows(),
			Dead:        c.Dead(),
			Bytes:       c.Bytes(),
		})
	}
	for _, d := range w.env.Schema.Dims {
		st.DimensionBytes += storage.DimensionBytes(d)
	}
	return st
}

// Metrics returns a point-in-time snapshot of the engine metrics: ingest
// and fold counters, query and synchronization latency histograms,
// snapshot lifecycle counters, and storage accounting. Counters are
// cumulative since Open (or seeded from the snapshot after a restore);
// snapshots may be subtracted to meter a window of work. The storage
// fields describe the one snapshot Metrics pinned, and Metrics writes no
// shared state, so concurrent callers never see each other's.
func (w *Warehouse) Metrics() obs.MetricsSnapshot {
	s := w.pin()
	defer w.unpin(s)
	st := w.statsOf(s)
	m := w.met.Snapshot()
	m.LiveRows, m.LiveBytes, m.DimBytes = int64(st.Rows), st.FactBytes, st.DimensionBytes
	m.CubeCount = int64(len(st.PerCube))
	for _, c := range st.PerCube {
		m.DeadRows += int64(c.Dead)
	}
	m.IngestPending = w.buf.Pending()
	return m
}
