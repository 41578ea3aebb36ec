// Package subcube implements the paper's Section 7 strategy for
// realizing data reduction on standard warehouse technology: the action
// set is transformed into disjoint actions grouped by identical target
// granularity, each group backed by one physical subcube (a fact table
// at a fixed granularity), plus one subcube at the bottom granularity
// that receives all new data. As NOW advances, synchronization migrates
// rows along the parent→child DAG, aggregating them into coarser
// subcubes; queries evaluate per subcube — in parallel — and combine the
// disjoint subresults with one final distributive aggregation, in both
// the synchronized and the un-synchronized state (Section 7.3).
package subcube

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/obs"
	"dimred/internal/spec"
	"dimred/internal/specexec"
	"dimred/internal/storage"
)

// Cube is one physical subcube: a fact table at a fixed granularity with
// a cell index for in-place aggregation, plus a day-range zone map used
// to skip the cube for time-selective queries. The zone map is
// conservative: deletes and migrations never shrink it, so it can only
// over-approximate the live range.
type Cube struct {
	id   int
	gran mdm.Granularity
	// Shared by Clone: compiled actions are immutable after spec
	// validation.
	actions []*spec.Action // actions targeting this granularity (empty for the bottom cube)
	store   *storage.Store
	index   *mdm.CellMap[storage.RowID] // cell -> live row
	parents []*Cube

	dayLo, dayHi caltime.Day
	hasRange     bool
	timeUnbound  bool // the cube's time category has no calendar unit (e.g. TOP)
}

// DayRange returns the zone map: the hull of the days covered by rows
// ever merged into the cube. ok is false when the cube has no range
// information (empty, no time dimension, or time aggregated to TOP).
func (c *Cube) DayRange() (lo, hi caltime.Day, ok bool) {
	if c.timeUnbound || !c.hasRange {
		return 0, 0, false
	}
	return c.dayLo, c.dayHi, true
}

// ID returns the cube's index within its CubeSet (0 is the bottom cube).
func (c *Cube) ID() int { return c.id }

// Gran returns the cube's fixed granularity.
func (c *Cube) Gran() mdm.Granularity { return c.gran }

// Actions returns the actions whose target granularity this cube
// realizes. The bottom cube has none.
func (c *Cube) Actions() []*spec.Action { return c.actions }

// Parents returns the cubes data migrates into this cube from.
func (c *Cube) Parents() []*Cube { return c.parents }

// Rows returns the number of live rows.
func (c *Cube) Rows() int { return c.store.Live() }

// Dead returns the number of tombstoned rows awaiting compaction.
func (c *Cube) Dead() int { return c.store.Dead() }

// Bytes returns the modeled storage size of the cube's live rows.
func (c *Cube) Bytes() int64 { return c.store.Bytes() }

// CubeSet is the collection of subcubes realizing one reduction
// specification over one schema.
type CubeSet struct {
	sp *spec.Spec
	// Shared by Clone: the schema environment is frozen after
	// construction.
	env      *spec.Env
	cubes    []*Cube
	lastSync caltime.Day
	synced   bool
	// layout counts the layouts this set has realized: ApplySpec replaces
	// the cube list, and a set on another layout cannot be levelled cube by
	// cube.
	layout int
	// deletedBase counts user facts physically removed by deletion
	// actions.
	deletedBase int64
	// met is the engine metric set; counters are cumulative over the cube
	// set's lifetime.
	// Shared by Clone: the metric substrate is all-atomic by design
	// (go vet copylocks flags a plain copy), so clones record into the
	// same instance.
	met *obs.Metrics
	// interpret makes cellEval interpret the specification's predicates
	// per row instead of probing the compiled router. The differential
	// tests and the before/after benchmarks flip it; production leaves it
	// false.
	interpret bool
	// pending lists, ascending, the bottom-cube rows Insert appended since
	// the last synchronization. While tracking holds, every live row not
	// in pending is at AggLevel(cell, lastSync), so a Sync whose router
	// gives lastSync's verdicts need only probe these rows. A merge into
	// an existing row adds no entry: that row is already listed or was
	// already at its level.
	pending []storage.RowID
	// tracking is false whenever pending may be incomplete — never
	// synchronized, rows restored from a snapshot, a list dropped for
	// length, a synchronization that failed mid-apply — and the next Sync
	// scans every touched cube.
	tracking bool
}

// pendingMax is the pending length from which Insert checks whether the
// list still beats a scan of the bottom cube.
const pendingMax = 1024

// SetInterpreted selects the interpreted evaluator (true) or the
// compiled specexec router (false, the default) for the per-cell verdicts
// of Sync, ApplySpec, Late and unsynchronized query views; everything
// else runs the same code either way, except that an interpreted Sync
// always scans in full. The two evaluators give identical verdicts; the
// flag exists so tests can prove it and benchmarks can price it.
func (cs *CubeSet) SetInterpreted(v bool) { cs.interpret = v }

// Metrics returns the cube set's metric set; the warehouse facade
// records into the same instance.
func (cs *CubeSet) Metrics() *obs.Metrics { return cs.met }

// SetMetrics redirects the cube set's instrumentation to m. Its only
// caller is the repo benchmark's tracer (bench/trace.go), which points its
// private clones at a scratch set so re-executed commits stay out of the
// warehouse's counters. It is not synchronized, so only call it on a cube
// set that is off the published read path.
func (cs *CubeSet) SetMetrics(m *obs.Metrics) { cs.met = m }

// Clone returns a deep copy of the cube set: an independent
// specification clone (sharing the immutable actions and, with them, the
// compiled program and its pinned routers), independent stores and cell
// indexes, recording into the same metric set. Cube IDs, row IDs and
// sync state carry over and every store's journal starts afresh: the
// clone is level with the receiver and, once written, can bring the
// receiver level again with LevelFrom. Clone only reads the receiver and
// may run concurrently with queries against it.
func (cs *CubeSet) Clone() *CubeSet {
	c2 := &CubeSet{
		sp:          cs.sp.Clone(),
		env:         cs.env,
		layout:      cs.layout,
		lastSync:    cs.lastSync,
		synced:      cs.synced,
		deletedBase: cs.deletedBase,
		met:         cs.met,
		interpret:   cs.interpret,
		pending:     append([]storage.RowID(nil), cs.pending...),
		tracking:    cs.tracking,
	}
	for _, c := range cs.cubes {
		nc := &Cube{
			id:          c.id,
			gran:        append(mdm.Granularity(nil), c.gran...),
			actions:     c.actions,
			store:       c.store.Clone(),
			index:       c.index.Clone(),
			dayLo:       c.dayLo,
			dayHi:       c.dayHi,
			hasRange:    c.hasRange,
			timeUnbound: c.timeUnbound,
		}
		c2.cubes = append(c2.cubes, nc)
	}
	// Parent edges point at the clone's cubes; IDs are positions, so the
	// remap is a direct lookup.
	for i, c := range cs.cubes {
		for _, p := range c.parents {
			c2.cubes[i].parents = append(c2.cubes[i].parents, c2.cubes[p.id])
		}
	}
	return c2
}

// LevelFrom brings cs level with src after src alone was written: the two
// were level when src was cloned from cs or last levelled from it, and
// every store of src has journaled its writes since. It copies
// what those journals name — the touched rows' measures, base counts and
// tombstones and the appended tail, column-wise — drops the cell-index
// entries of the rows that died and adds the appended rows', takes over
// zone maps, sync state, pending rows and the evaluation mode. A cube
// whose journal gave up (a compaction, too many touched rows) is cloned
// whole. A set on another layout or specification generation cannot be
// levelled cube by cube; the result is then a clone of src. It returns
// the set now level with src — cs, or that clone — and the rows copied.
// LevelFrom only reads src and may run beside queries against it; nothing
// may read cs meanwhile.
func (cs *CubeSet) LevelFrom(src *CubeSet) (*CubeSet, int) {
	if cs.layout != src.layout || cs.sp.Generation() != src.sp.Generation() {
		return src.Clone(), src.TotalRows()
	}
	rows := 0
	cell := make([]mdm.ValueID, cs.env.Schema.NumDims())
	for i, c := range cs.cubes {
		rows += c.levelFrom(src.cubes[i], cell)
	}
	cs.lastSync, cs.synced = src.lastSync, src.synced
	cs.deletedBase = src.deletedBase
	cs.interpret = src.interpret
	cs.pending = append(cs.pending[:0], src.pending...)
	cs.tracking = src.tracking
	return cs, rows
}

// levelFrom is LevelFrom for one cube; cell is scratch. The index entries
// of the rows that died go before the store forgets which rows they were,
// the appended rows' after it has them.
func (c *Cube) levelFrom(src *Cube, cell []mdm.ValueID) int {
	c.dayLo, c.dayHi, c.hasRange, c.timeUnbound = src.dayLo, src.dayHi, src.hasRange, src.timeUnbound
	mark, touched, _ := src.store.Journal()
	for _, r := range touched {
		if !src.store.Alive(r) && c.store.Alive(r) {
			c.index.Delete(c.store.Refs(r, cell))
		}
	}
	rows, ok := c.store.LevelFrom(src.store)
	if !ok {
		c.store, c.index = src.store.Clone(), src.index.Clone()
		return c.store.Rows()
	}
	for r := storage.RowID(mark); int(r) < c.store.Rows(); r++ {
		if c.store.Alive(r) {
			c.index.Put(c.store.Refs(r, cell), r)
		}
	}
	return rows
}

// New builds the subcube layout for a specification: one cube per
// distinct action target granularity, plus the bottom cube (which
// corresponds to the catch-all disjoint action a_bottom of the Section
// 7.1 example).
func New(sp *spec.Spec) (*CubeSet, error) {
	env := sp.Env()
	cs := &CubeSet{sp: sp, env: env, met: obs.NewMetrics()}
	layout := storage.Layout{DimCols: env.Schema.NumDims(), MeasCols: len(env.Schema.Measures)}
	add := func(gran mdm.Granularity) *Cube {
		c := &Cube{id: len(cs.cubes), gran: gran, store: storage.New(layout), index: mdm.NewCellMap[storage.RowID](layout.DimCols)}
		cs.cubes = append(cs.cubes, c)
		return c
	}
	add(env.Schema.BottomGranularity())
	for _, a := range sp.Actions() {
		if a.IsDelete() {
			continue // deletion actions have no physical cube
		}
		c := cs.cubeAt(a.Target())
		if c == nil {
			c = add(a.Target())
		}
		c.actions = append(c.actions, a)
	}
	cs.computeDAG()
	return cs, nil
}

// cubeAt returns the cube at the granularity, nil when the layout has
// none. A layout is the bottom cube plus one cube per distinct action
// target — a handful — so the lookup is a scan.
func (cs *CubeSet) cubeAt(level mdm.Granularity) *Cube {
	for _, c := range cs.cubes {
		if cs.env.Schema.GranEq(c.gran, level) {
			return c
		}
	}
	return nil
}

// computeDAG derives the parent→child edges of Section 7.1: the bottom
// cube is a parent of every other cube (new and late-arriving data can
// migrate from it directly), and a non-bottom cube p is a parent of c
// when an action of p is dominated by an action of c whose predicates
// can select common cells at some time.
func (cs *CubeSet) computeDAG() {
	for _, c := range cs.cubes {
		c.parents = nil
	}
	for _, c := range cs.cubes[1:] {
		c.parents = append(c.parents, cs.cubes[0])
		for _, p := range cs.cubes[1:] {
			if p == c || !cs.env.Schema.GranLE(p.gran, c.gran) {
				continue
			}
			if cs.cubesLinked(p, c) {
				c.parents = append(c.parents, p)
			}
		}
	}
}

// cubesLinked reports whether rows can migrate directly from p to c: an
// action of p is dominated by an action of c that can select, one day
// later, a cell p's action selects — either because the predicates
// overlap outright or because c's region catches cells released by p's
// shrinking bound.
func (cs *CubeSet) cubesLinked(p, c *Cube) bool {
	for _, pa := range p.actions {
		for _, ca := range c.actions {
			if spec.LessEq(pa, ca) && spec.ActionFeeds(cs.env, pa, ca) {
				return true
			}
		}
	}
	return false
}

// Cubes returns the subcubes (index 0 is the bottom cube).
func (cs *CubeSet) Cubes() []*Cube { return cs.cubes }

// Spec returns the specification this cube set realizes.
func (cs *CubeSet) Spec() *spec.Spec { return cs.sp }

// LastSync returns the time of the last synchronization; ok is false if
// the set was never synchronized.
func (cs *CubeSet) LastSync() (caltime.Day, bool) { return cs.lastSync, cs.synced }

// Insert adds one user fact at the bottom granularity. Measures of
// COUNT kind are initialized to 1 regardless of the supplied value.
func (cs *CubeSet) Insert(refs []mdm.ValueID, meas []float64) error {
	schema := cs.env.Schema
	bottom := cs.cubes[0]
	if err := schema.CheckFact(refs, meas, bottom.gran); err != nil {
		return fmt.Errorf("subcube: Insert: %w", err)
	}
	// Up to eight measures lift on the stack: the store copies what it keeps.
	var buf [8]float64
	init := append(buf[:0], meas...)
	for j, m := range schema.Measures {
		init[j] = m.Agg.Init(meas[j])
		if m.Agg == mdm.AggCount {
			init[j] = 1
		}
	}
	rows := bottom.store.Rows()
	if err := cs.mergeInto(bottom, refs, init, 1); err != nil {
		return err
	}
	if cs.tracking && bottom.store.Rows() > rows {
		cs.pending = append(cs.pending, storage.RowID(rows))
		// A list this long saves nothing over the scan it replaces, and a
		// bulk load must not retain a row id per fact.
		if n := len(cs.pending); n >= pendingMax && n*4 > bottom.store.Live() {
			cs.pending, cs.tracking = nil, false
		}
	}
	return nil
}

// Late reports whether a bottom-granularity fact with these refs would
// land inside an already-reduced region: as of the last synchronization
// the specification deletes its cell or aggregates it above the bottom
// granularity. A never-synchronized set has no reduced region, and refs
// that are not a bottom cell are not late — Insert reports them.
func (cs *CubeSet) Late(refs []mdm.ValueID) bool {
	schema := cs.env.Schema
	bottom := cs.cubes[0].gran
	if !cs.synced || schema.CheckCell(refs, bottom) != nil {
		return false
	}
	e := cs.newCellEval(cs.sp, cs.lastSync)
	late := e.deletedBy(refs) != nil
	if !late {
		var buf [8]mdm.CategoryID
		level := append(mdm.Granularity(buf[:0]), bottom...)
		e.aggLevelInto(refs, level, nil)
		late = !schema.GranEq(level, bottom)
	}
	cs.met.ProgramProbes.Add(e.probes)
	return late
}

// InsertMO bulk-loads every fact of a bottom-granularity MO.
func (cs *CubeSet) InsertMO(mo *mdm.MO) error {
	for f := 0; f < mo.Len(); f++ {
		fid := mdm.FactID(f)
		if err := cs.Insert(mo.Refs(fid), mo.Measures(fid)); err != nil {
			return err
		}
	}
	return nil
}

// mergeInto adds (or merges) a row at the cube's granularity. It is the
// physical Group_high fold: sync order must not affect the result, so it
// carries the distributivity obligation.
//
//dimred:aggregate
func (cs *CubeSet) mergeInto(c *Cube, refs []mdm.ValueID, meas []float64, base int64) error {
	cs.extendZoneMap(c, refs)
	if r, ok := c.index.Get(refs); ok && c.store.Alive(r) {
		for j, m := range cs.env.Schema.Measures {
			c.store.SetMeasure(r, j, m.Agg.Merge(c.store.Measure(r, j), meas[j]))
		}
		c.store.AddBase(r, base)
		cs.met.RowsMerged.Inc()
		return nil
	}
	r, err := c.store.Append(refs, meas, base)
	if err != nil {
		return fmt.Errorf("subcube: %w", err)
	}
	c.index.Put(refs, r)
	cs.met.RowsAppended.Inc()
	return nil
}

// cellEval evaluates DeletedBy/AggLevel per cell through either the
// compiled router or the interpreted specification, behind one seam so
// Sync, Late and viewOf need a single implementation each. It counts
// router probes locally; callers publish the count with one atomic add.
type cellEval struct {
	router *specexec.Router // nil selects the interpreted path
	sp     *spec.Spec
	t      caltime.Day
	probes int64
}

func (cs *CubeSet) newCellEval(sp *spec.Spec, t caltime.Day) cellEval {
	e := cellEval{sp: sp, t: t}
	if !cs.interpret {
		e.router = specexec.RouterAt(sp, t, cs.met)
	}
	return e
}

func (e *cellEval) deletedBy(cell []mdm.ValueID) *spec.Action {
	if e.router != nil {
		e.probes++
		return e.router.DeletedBy(cell)
	}
	return e.sp.DeletedBy(cell, e.t)
}

func (e *cellEval) aggLevelInto(cell []mdm.ValueID, level mdm.Granularity, resp []*spec.Action) {
	if e.router != nil {
		e.probes++
		e.router.AggLevelInto(cell, level, resp)
		return
	}
	lv, rs := e.sp.AggLevel(cell, e.t)
	copy(level, lv)
	if resp != nil {
		copy(resp, rs)
	}
}

// cubeUntouchedAt reports whether synchronization can skip cube c at
// time t: every action that could raise (or delete) the cube's rows has
// a time hull disjoint from the cube's day-range zone map. Rows whose
// level could change must satisfy some action's predicate, so disjoint
// hulls mean no row moves.
func (cs *CubeSet) cubeUntouchedAt(c *Cube, t caltime.Day) bool {
	lo, hi, ok := c.DayRange()
	if !ok {
		return c.store.Live() == 0
	}
	for _, a := range cs.sp.Actions() {
		if !a.IsDelete() && cs.env.Schema.GranLE(a.Target(), c.gran) && !cs.env.Schema.GranEq(a.Target(), c.gran) {
			continue // cannot raise the cube's level
		}
		if a.IsDelete() || !cs.env.Schema.GranEq(a.Target(), c.gran) {
			aLo, aHi, bounded := a.TimeHullAt(t)
			if !bounded || (aHi >= lo && aLo <= hi) {
				return false // the action may select rows of this cube
			}
		}
	}
	return true
}

// extendZoneMap widens the cube's day-range hull by the row's time
// value.
func (cs *CubeSet) extendZoneMap(c *Cube, refs []mdm.ValueID) {
	if cs.env.TimeDim < 0 || c.timeUnbound {
		return
	}
	td := cs.env.Schema.Dims[cs.env.TimeDim]
	v := refs[cs.env.TimeDim]
	u, ok := cs.env.Time.UnitForCategory(td.CategoryOf(v))
	if !ok {
		c.timeUnbound = true
		return
	}
	p := caltime.Period{Unit: u, Index: td.ValueOrd(v)}
	lo, hi := p.First(), p.Last()
	if !c.hasRange {
		c.dayLo, c.dayHi, c.hasRange = lo, hi, true
		return
	}
	if lo < c.dayLo {
		c.dayLo = lo
	}
	if hi > c.dayHi {
		c.dayHi = hi
	}
}

// Sync migrates every row to the subcube of its current aggregation
// level at time t (Section 7.2): for each cube, rows whose AggLevel has
// risen are rolled up and merged into the destination cube, and rows a
// deletion action selects are removed. It returns the number of rows
// moved or deleted. The per-row verdicts come from cellEval — the
// day-pinned router, or under SetInterpreted(true) the specification's
// own predicates — and everything else is one pipeline (migrate).
//
// Where deltaOnly allows, Sync probes only the rows inserted since the
// last synchronization: the same movers, in the same order, as its full
// scan. The interpreted evaluator always scans in full.
func (cs *CubeSet) Sync(t caltime.Day) (int, error) {
	moved, err := cs.migrate(t)
	if err != nil {
		// The apply phase may have stopped anywhere.
		cs.pending, cs.tracking = nil, false
		return moved, err
	}
	cs.markSynced(t)
	return moved, nil
}

// markSynced records that every live row is at AggLevel(cell, t). The
// pending list's backing array is released, not truncated: after a bulk
// load it may hold a row id per fact.
func (cs *CubeSet) markSynced(t caltime.Day) {
	cs.lastSync, cs.synced = t, true
	cs.pending, cs.tracking = nil, true
}

// deltaOnly reports whether a Sync at t, probing with router, may visit
// only the pending rows. Every other live row is at
// AggLevel(cell, lastSync) (tracking); it stays there if no cell can
// take the interpreted fallback (the domain is complete) and the
// day-pinned masks at t are lastSync's — equal cells have equal levels,
// and the default aggregates are distributive, so nothing else can
// move. Month- and quarter-unit NOW bounds pin equal masks on every day
// of a month; a day-unit bound differs daily and takes the full scan.
func (cs *CubeSet) deltaOnly(t caltime.Day, router *specexec.Router) bool {
	if !cs.tracking || !router.DomainComplete() {
		return false
	}
	return t == cs.lastSync || specexec.RouterAt(cs.sp, cs.lastSync, cs.met).SameVerdicts(router)
}

// cubeMovers is one cube's phase-1 result: rows to tombstone-delete, and
// for each migrating row its destination cube, rolled-up cell, measures
// and base count — extracted up front into flat per-cube scratch so the
// parallel apply phase never reads another goroutine's store. eval is
// the cube's own copy of the evaluator, so its probe count is the cube's.
type cubeMovers struct {
	eval    cellEval
	delRows []storage.RowID
	delBase int64
	rows    []storage.RowID // migrating rows, ascending
	dsts    []int32         // destination cube id per migrating row
	ups     []mdm.ValueID   // rolled-up cells, nDims entries per row
	meas    []float64       // measures, nMeas entries per row
	base    []int64
	scanned int
	err     error
}

// migrate is Sync's body. Phase 1 takes the cellEval at t (the
// day-pinned router of the action set, compiled only after a spec
// mutation, or the interpreted specification), then scans the cubes in
// parallel, asking it per row and extracting every mover's rolled-up row
// into per-cube scratch. Phase 2
// is parallel too: one task per cube (eachCube) owns that cube's store
// and index outright — it tombstones the cube's deleted and outbound rows
// and merges the inbound movers, in (source cube, source row) order so
// the result is deterministic. A mover's destination cell can never
// coincide with a cell leaving the same cube at the same t (equal cells
// have equal AggLevel), so the deferred deletes commute with the merges.
func (cs *CubeSet) migrate(t caltime.Day) (int, error) {
	schema := cs.env.Schema
	nDims := schema.NumDims()
	nMeas := len(schema.Measures)

	eval := cs.newCellEval(cs.sp, t)
	delta := eval.router != nil && cs.deltaOnly(t, eval.router)
	if delta {
		cs.met.SyncsIncremental.Inc()
	}

	// Phase 1 (parallel): find movers and extract their rolled-up rows.
	movers := make([]cubeMovers, len(cs.cubes))
	var scan []int
	for ci, c := range cs.cubes {
		if delta && ci > 0 {
			break // only bottom rows are pending
		}
		if cs.cubeUntouchedAt(c, t) {
			cs.met.SyncSkips.Inc()
			continue
		}
		movers[ci].eval = eval
		scan = append(scan, ci)
	}
	eachCube(scan, func(ci int) {
		m, c := &movers[ci], cs.cubes[ci]
		cell := make([]mdm.ValueID, nDims)
		level := make(mdm.Granularity, nDims)
		probe := func(r storage.RowID) bool {
			m.scanned++
			c.store.Refs(r, cell)
			if m.eval.deletedBy(cell) != nil {
				m.delRows = append(m.delRows, r)
				m.delBase += c.store.Base(r)
				return true
			}
			m.eval.aggLevelInto(cell, level, nil)
			if schema.GranEq(level, c.gran) {
				return true
			}
			dst := cs.cubeAt(level)
			if dst == nil {
				m.err = fmt.Errorf("subcube: Sync: no cube at granularity %s", schema.GranString(level))
				return false
			}
			var err error
			if m.ups, err = schema.RollUp(m.ups, cell, level); err != nil {
				m.err = fmt.Errorf("subcube: Sync: %w", err)
				return false
			}
			for j := 0; j < nMeas; j++ {
				m.meas = append(m.meas, c.store.Measure(r, j))
			}
			m.rows = append(m.rows, r)
			m.dsts = append(m.dsts, int32(dst.id))
			m.base = append(m.base, c.store.Base(r))
			return true
		}
		if !delta {
			c.store.Scan(probe)
			return
		}
		for _, r := range cs.pending {
			if !probe(r) {
				return
			}
		}
	})

	moved := 0
	for ci := range movers {
		m := &movers[ci]
		cs.met.SyncScanned.Add(int64(m.scanned))
		cs.met.ProgramProbes.Add(m.eval.probes)
		if m.err != nil {
			return 0, m.err
		}
		moved += len(m.delRows) + len(m.rows)
	}
	if moved == 0 {
		return 0, nil
	}

	// Regroup movers by destination, in (source cube, source row) order.
	type moverRef struct {
		src, idx int32
	}
	inbound := make([][]moverRef, len(cs.cubes))
	for si := range movers {
		for k, d := range movers[si].dsts {
			inbound[d] = append(inbound[d], moverRef{src: int32(si), idx: int32(k)})
		}
	}

	// Phase 2 (parallel): each task owns exactly one cube — tombstones
	// its outbound and deleted rows, merges its inbound rows, then
	// compacts if tombstones dominate.
	errs := make([]error, len(cs.cubes))
	var apply []int
	for ci := range cs.cubes {
		if len(inbound[ci]) > 0 || len(movers[ci].delRows) > 0 || len(movers[ci].rows) > 0 {
			apply = append(apply, ci)
		}
	}
	eachCube(apply, func(ci int) {
		c := cs.cubes[ci]
		cell := make([]mdm.ValueID, nDims)
		m := &movers[ci]
		for _, r := range m.delRows {
			c.index.Delete(c.store.Refs(r, cell))
			c.store.Delete(r)
		}
		for _, r := range m.rows {
			c.index.Delete(c.store.Refs(r, cell))
			c.store.Delete(r)
		}
		for _, ref := range inbound[ci] {
			src := &movers[ref.src]
			up := src.ups[int(ref.idx)*nDims : (int(ref.idx)+1)*nDims]
			meas := src.meas[int(ref.idx)*nMeas : (int(ref.idx)+1)*nMeas]
			if err := cs.mergeInto(c, up, meas, src.base[ref.idx]); err != nil {
				errs[ci] = err
				return
			}
		}
		if c.store.Rows() > 64 && c.store.Live()*2 < c.store.Rows() {
			cs.compact(c)
		}
	})
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}

	var deleted int64
	for ci := range movers {
		deleted += movers[ci].delBase
	}
	cs.deletedBase += deleted
	cs.met.FactsDeleted.Add(deleted)
	cs.met.RowsFolded.Add(int64(moved))
	return moved, nil
}

// eachCube runs fn for every listed cube, one goroutine per cube — except
// that a single cube runs on the caller's: a delta-only Sync scans the
// bottom cube alone and usually merges into one cube, and a goroutine
// round trip would cost more than either.
func eachCube(cubes []int, fn func(ci int)) {
	if len(cubes) == 1 {
		fn(cubes[0])
		return
	}
	var wg sync.WaitGroup
	for _, ci := range cubes {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			fn(ci)
		}(ci)
	}
	wg.Wait()
}

func (cs *CubeSet) compact(c *Cube) {
	cs.met.Compactions.Inc()
	remapIndex(c.index, c.store.Compact())
}

// remapIndex rewrites every entry of a cell index through the row
// remapping returned by Store.Compact, dropping entries whose rows were
// reclaimed; the index comes out sized to the entries left.
func remapIndex(ix *mdm.CellMap[storage.RowID], remap []storage.RowID) {
	ix.Rewrite(func(r storage.RowID) (storage.RowID, bool) {
		return remap[r], remap[r] >= 0
	})
}

// ApplySpec moves the set onto the cube layout of an updated
// specification (the infrequent synchronization of Section 7.2): it
// builds New(sp)'s layout, hands each cube whose granularity the old
// layout shares its store, cell index and zone map, and runs one full
// Sync at t, which moves, folds and deletes rows as sp directs. A
// populated cube the new layout has no counterpart for is an error that
// leaves the set unchanged: no row ever falls below its own granularity,
// so its rows would have no cube to stay in. An error from the Sync
// leaves the set as a failed Sync does.
func (cs *CubeSet) ApplySpec(sp *spec.Spec, t caltime.Day) error {
	if sp.Env() != cs.env {
		return fmt.Errorf("subcube: ApplySpec: specification bound to a different environment")
	}
	next, err := New(sp)
	if err != nil {
		return err
	}
	for _, c := range cs.cubes {
		nc := next.cubeAt(c.gran)
		if nc == nil {
			if c.store.Live() > 0 {
				return fmt.Errorf("subcube: ApplySpec: no cube at granularity %s for %d rows",
					cs.env.Schema.GranString(c.gran), c.store.Live())
			}
			continue
		}
		nc.store, nc.index = c.store, c.index
		nc.dayLo, nc.dayHi, nc.hasRange, nc.timeUnbound = c.dayLo, c.dayHi, c.hasRange, c.timeUnbound
	}
	cs.met.SpecRebuilds.Inc()
	cs.sp, cs.cubes = sp, next.cubes
	cs.layout++
	cs.pending, cs.tracking = nil, false
	_, err = cs.Sync(t)
	return err
}

// DeletedFacts returns the number of user facts physically removed by
// deletion actions so far.
func (cs *CubeSet) DeletedFacts() int64 { return cs.deletedBase }

// RestoreRow re-injects a row saved from a snapshot: it is merged into
// the cube whose granularity matches the row's own. The measures are
// taken as already-aggregated partials.
func (cs *CubeSet) RestoreRow(refs []mdm.ValueID, meas []float64, base int64) error {
	schema := cs.env.Schema
	if err := schema.CheckFact(refs, meas, nil); err != nil {
		return fmt.Errorf("subcube: RestoreRow: %w", err)
	}
	gran := make(mdm.Granularity, len(refs))
	for i, d := range schema.Dims {
		gran[i] = d.CategoryOf(refs[i])
	}
	c := cs.cubeAt(gran)
	if c == nil {
		return fmt.Errorf("subcube: RestoreRow: no cube at granularity %s", schema.GranString(gran))
	}
	cs.pending, cs.tracking = nil, false
	return cs.mergeInto(c, refs, meas, base)
}

// RestoreSyncState re-applies snapshot bookkeeping: the last
// synchronization time and the deleted-fact count. Restored rows are
// taken on trust, so the next Sync scans every touched cube.
func (cs *CubeSet) RestoreSyncState(lastSync caltime.Day, synced bool, deleted int64) {
	cs.lastSync, cs.synced = lastSync, synced
	cs.deletedBase = deleted
	cs.pending, cs.tracking = nil, false
}

// TotalRows returns the number of live rows across all cubes.
func (cs *CubeSet) TotalRows() int {
	n := 0
	for _, c := range cs.cubes {
		n += c.Rows()
	}
	return n
}

// TotalBytes returns the modeled storage across all cubes.
func (cs *CubeSet) TotalBytes() int64 {
	var n int64
	for _, c := range cs.cubes {
		n += c.Bytes()
	}
	return n
}

// MO materializes one cube as a multidimensional object, for the
// experiments, the snapshot writer and tests.
func (c *Cube) MO(schema *mdm.Schema) (*mdm.MO, error) {
	mo := mdm.NewMO(schema)
	mo.SetFloors(c.gran)
	_, err := c.AppendTo(mo, nil)
	return mo, err
}

// AppendTo is the one cube scan: it appends the cube's live rows, in row
// order, to mo as facts at the cube's granularity — every row when keep is
// nil, else those whose cell keep accepts (the cell slice is reused from
// row to row). It returns the rows visited.
func (c *Cube) AppendTo(mo *mdm.MO, keep func(cell []mdm.ValueID) bool) (scanned int, err error) {
	layout := c.store.Layout()
	refs := make([]mdm.ValueID, layout.DimCols)
	meas := make([]float64, layout.MeasCols)
	c.store.Scan(func(r storage.RowID) bool {
		scanned++
		c.store.Refs(r, refs)
		if keep != nil && !keep(refs) {
			return true
		}
		for j := range meas {
			meas[j] = c.store.Measure(r, j)
		}
		_, err = mo.AddFactAt(refs, meas, c.store.Base(r), "")
		return err == nil
	})
	return scanned, err
}

// Describe renders the cube layout with the disjoint-action view of
// Section 7.1: each cube's granularity, its actions, and the
// higher-target actions its predicate excludes (the negated conjuncts of
// Eq. 41-44); the bottom cube excludes every action.
func (cs *CubeSet) Describe() string {
	var b strings.Builder
	for _, c := range cs.cubes {
		fmt.Fprintf(&b, "K%d %s", c.id, cs.env.Schema.GranString(c.gran))
		if len(c.actions) == 0 {
			b.WriteString(" [bottom]")
		}
		var parents []string
		for _, p := range c.parents {
			parents = append(parents, fmt.Sprintf("K%d", p.id))
		}
		sort.Strings(parents)
		if len(parents) > 0 {
			fmt.Fprintf(&b, " parents={%s}", strings.Join(parents, ","))
		}
		b.WriteByte('\n')
		for _, a := range c.actions {
			fmt.Fprintf(&b, "  include %s\n", a.String())
		}
		for _, excl := range cs.excludedBy(c) {
			fmt.Fprintf(&b, "  exclude %s\n", excl)
		}
	}
	return b.String()
}

// excludedBy lists the actions whose (strictly higher) targets carve
// cells out of cube c's disjoint predicate.
func (cs *CubeSet) excludedBy(c *Cube) []string {
	var out []string
	for _, a := range cs.sp.Actions() {
		if cs.env.Schema.GranEq(a.Target(), c.gran) {
			continue
		}
		if len(c.actions) == 0 {
			// Bottom cube: everything aggregated elsewhere is excluded.
			out = append(out, a.Name())
			continue
		}
		for _, own := range c.actions {
			if spec.LessEq(own, a) && spec.ActionsOverlap(cs.env, own, a) {
				out = append(out, a.Name())
				break
			}
		}
	}
	sort.Strings(out)
	return out
}
