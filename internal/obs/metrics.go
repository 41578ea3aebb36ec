package obs

import (
	"fmt"
	"reflect"
	"strings"
)

// Metrics is the engine-wide metric set, shared by the warehouse
// facade and the subcube engine. One instance is created
// per CubeSet and survives specification rebuilds, so counters are
// cumulative over the warehouse's lifetime. All fields are safe for
// concurrent use.
type Metrics struct {
	// clock times the histogram-observed stages. Nil means System; set
	// it once with SetClock before handing the metric set to concurrent
	// users.
	clock Clock

	// Load path.
	FactsLoaded  Counter // user facts ingested via Load/LoadBatch
	BatchLoads   Counter // LoadBatch calls
	RowsAppended Counter // physical rows appended to any cube store
	RowsMerged   Counter // in-place cell merges (row already present)

	// Clock and synchronization.
	Advances         Counter   // clock advances
	Syncs            Counter   // synchronization rounds
	SyncsIncremental Counter   // cube-set synchronizations that probed only the rows inserted since the last one
	SyncSkips        Counter   // cubes skipped by the zone-map untouched check
	SyncScanned      Counter   // rows visited by sync mover scans
	RowsFolded       Counter   // rows migrated to a coarser subcube or deleted
	FactsDeleted     Counter   // user facts physically removed by delete actions
	Compactions      Counter   // store compactions reclaiming tombstones
	SpecRebuilds     Counter   // ApplySpec layout rebuilds
	SyncDuration     Histogram // wall time per synchronization round
	QueryDuration    Histogram // wall time per cube-set query evaluation

	// Compiled evaluation (specexec).
	ProgramCacheHits   Counter // program lookups served by the action set's compiled program
	ProgramCacheMisses Counter // program lookups that had to compile (one compile each)
	RouterCacheHits    Counter // day-pinned router reuses
	ProgramProbes      Counter // per-row compiled router probes
	BitsetBytes        Gauge   // bitset bytes retained by the published program

	// Query path.
	Queries        Counter // cube-set evaluations
	CubesConsulted Counter // subcubes scanned by queries
	CubesPruned    Counter // subcubes skipped by the zone map
	RowsScanned    Counter // rows visited by query scans
	RowsSelected   Counter // scanned rows surviving the predicate

	// Materialized rollup views (warehouse).
	ViewHits   Counter // queries answered from a materialized view
	ViewFolds  Counter // view hits that folded a finer view up to the target; hits - folds were served as stored
	ViewMisses Counter // view-eligible queries that fell back to the base subcubes
	ViewBuilds Counter // views materialized by commit-path refreshes
	ViewBytes  Gauge   // modeled bytes retained by the published view set

	// Streaming ingest (warehouse delta buffers).
	IngestQueued       Counter   // facts appended to the delta buffer
	IngestCompacted    Counter   // buffered facts folded into the subcube DAG
	IngestLate         Counter   // compacted facts landing inside an already-reduced region
	IngestRejected     Counter   // drained facts whose fold failed: queued = compacted + rejected + pending
	CompactionDuration Histogram // wall time per delta-fold compaction

	// Epoch-snapshot read path (warehouse).
	SnapshotPublishes    Counter // snapshots published by writers (including clock-only refreshes)
	SnapshotDrainWaits   Counter // publishes that had to wait for pinned readers to drain
	SnapshotReclones     Counter // commits whose retired side was dropped for a clone of the published one
	SnapshotLevelledRows Counter // rows copied into drained retired sides to level them (a cube copied whole counts every row)
	SnapshotsRetained    Gauge   // retired snapshots awaiting reader drain and levelling
}

// NewMetrics creates an empty metric set timed by the System clock.
func NewMetrics() *Metrics { return &Metrics{} }

// Clock returns the clock the engine must use to time the stages this
// metric set observes.
func (m *Metrics) Clock() Clock {
	if m.clock == nil {
		return System
	}
	return m.clock
}

// SetClock substitutes the timing source (a FakeClock in tests). Call
// it before the metric set is shared with concurrent users; the field
// is read without synchronization afterwards.
func (m *Metrics) SetClock(c Clock) { m.clock = c }

// MetricsSnapshot is a point-in-time copy of every metric, safe to
// retain and compare (e.g. before/after a bench run). IngestPending and
// the storage fields have no Metrics counterpart: they describe one
// published state, and whoever takes the snapshot fills them from the
// state it pinned.
type MetricsSnapshot struct {
	FactsLoaded  int64
	BatchLoads   int64
	RowsAppended int64
	RowsMerged   int64

	Advances         int64
	Syncs            int64
	SyncsIncremental int64
	SyncSkips        int64
	SyncScanned      int64
	RowsFolded       int64
	FactsDeleted     int64
	Compactions      int64
	SpecRebuilds     int64

	ProgramCacheHits   int64
	ProgramCacheMisses int64
	RouterCacheHits    int64
	ProgramProbes      int64
	BitsetBytes        int64

	Queries        int64
	CubesConsulted int64
	CubesPruned    int64
	RowsScanned    int64
	RowsSelected   int64

	ViewHits   int64
	ViewFolds  int64
	ViewMisses int64
	ViewBuilds int64
	ViewBytes  int64

	IngestQueued    int64
	IngestCompacted int64
	IngestLate      int64
	IngestRejected  int64
	IngestPending   int64 // facts waiting in the delta buffer

	SnapshotPublishes    int64
	SnapshotDrainWaits   int64
	SnapshotReclones     int64
	SnapshotLevelledRows int64
	SnapshotsRetained    int64

	SyncDuration       HistogramSnapshot
	QueryDuration      HistogramSnapshot
	CompactionDuration HistogramSnapshot

	LiveRows  int64 // live rows across all cubes
	LiveBytes int64 // modeled fact bytes across all cubes
	DeadRows  int64 // tombstoned rows awaiting compaction
	DimBytes  int64 // modeled dimension-table bytes
	CubeCount int64 // physical subcubes in the layout
}

// metricRow describes one metric — the one place that says which
// report section it belongs to and what it is called there. The same
// field name addresses the metric in Metrics and in MetricsSnapshot;
// whether it is a counter (subtracted by Sub), a gauge or a histogram is
// read off the Metrics field's type. A row without a field is a section
// header. A snapshot-only row names a MetricsSnapshot field that Metrics
// does not hold: Snapshot leaves it zero for the caller to fill, Sub
// keeps it, String prints it.
type metricRow struct {
	field, label string
	snapshotOnly bool
	m, s         int  // field indices in Metrics and MetricsSnapshot
	counter      bool // Sub subtracts it
}

// metricRows lists every metric once, in report order. Snapshot, Sub
// and String all walk it; a Metrics field missing here is never copied,
// which TestEveryMetricIsSnapshotSubtractedAndPrinted turns into a
// failure.
var metricRows = []metricRow{
	{label: "ingest"},
	{field: "FactsLoaded", label: "facts loaded"},
	{field: "BatchLoads", label: "batch loads"},
	{field: "RowsAppended", label: "rows appended"},
	{field: "RowsMerged", label: "rows merged in place"},
	{field: "IngestQueued", label: "ingest queued"},
	{field: "IngestCompacted", label: "ingest compacted"},
	{field: "IngestLate", label: "ingest late facts"},
	{field: "IngestRejected", label: "ingest rejected"},
	{field: "IngestPending", label: "ingest pending", snapshotOnly: true},
	{field: "CompactionDuration", label: "compaction latency"},

	{label: "synchronization"},
	{field: "Advances", label: "clock advances"},
	{field: "Syncs", label: "sync rounds"},
	{field: "SyncsIncremental", label: "sync rounds (delta only)"},
	{field: "SyncSkips", label: "cubes skipped (zone map)"},
	{field: "SyncScanned", label: "rows scanned"},
	{field: "RowsFolded", label: "rows folded"},
	{field: "FactsDeleted", label: "facts deleted"},
	{field: "Compactions", label: "compactions"},
	{field: "SpecRebuilds", label: "spec rebuilds"},
	{field: "ProgramCacheHits", label: "program cache hits"},
	{field: "ProgramCacheMisses", label: "program cache misses"},
	{field: "RouterCacheHits", label: "router cache hits"},
	{field: "ProgramProbes", label: "program probes"},
	{field: "BitsetBytes", label: "program bitset bytes"},
	{field: "SyncDuration", label: "sync latency"},

	{label: "snapshots"},
	{field: "SnapshotPublishes", label: "publishes"},
	{field: "SnapshotDrainWaits", label: "drain waits"},
	{field: "SnapshotReclones", label: "side reclones"},
	{field: "SnapshotLevelledRows", label: "rows levelled"},
	{field: "SnapshotsRetained", label: "retained"},

	{label: "queries"},
	{field: "Queries", label: "queries"},
	{field: "CubesConsulted", label: "cubes consulted"},
	{field: "CubesPruned", label: "cubes pruned (zone map)"},
	{field: "RowsScanned", label: "rows scanned"},
	{field: "RowsSelected", label: "rows selected"},
	{field: "ViewHits", label: "view hits"},
	{field: "ViewFolds", label: "view hits folded"},
	{field: "ViewMisses", label: "view misses"},
	{field: "ViewBuilds", label: "view builds"},
	{field: "ViewBytes", label: "view bytes"},
	{field: "QueryDuration", label: "query latency"},

	{label: "storage"},
	{field: "CubeCount", label: "subcubes", snapshotOnly: true},
	{field: "LiveRows", label: "live rows", snapshotOnly: true},
	{field: "DeadRows", label: "dead rows", snapshotOnly: true},
	{field: "LiveBytes", label: "fact bytes", snapshotOnly: true},
	{field: "DimBytes", label: "dimension bytes", snapshotOnly: true},
}

// init resolves each row's field in both structs. A name that does not
// resolve, or resolves to the wrong snapshot type, is a typo in the
// table above.
func init() {
	mt, st := reflect.TypeOf((*Metrics)(nil)).Elem(), reflect.TypeOf(MetricsSnapshot{})
	for i := range metricRows {
		r := &metricRows[i]
		if r.field == "" {
			continue
		}
		mf, okM := mt.FieldByName(r.field)
		sf, okS := st.FieldByName(r.field)
		wantS := reflect.TypeOf(int64(0))
		if r.snapshotOnly {
			if okM || !okS || sf.Type != wantS {
				panic("obs: metricRows: " + r.field + " is not a snapshot-only int64 field")
			}
			r.m, r.s = -1, sf.Index[0]
			continue
		}
		switch mf.Type {
		case reflect.TypeOf(Counter{}):
			r.counter = true
		case reflect.TypeOf(Gauge{}):
		case reflect.TypeOf(Histogram{}):
			wantS = reflect.TypeOf(HistogramSnapshot{})
		default:
			okM = false
		}
		if !okM || !okS || sf.Type != wantS {
			panic("obs: metricRows: " + r.field + " is not a metric with a matching MetricsSnapshot field")
		}
		r.m, r.s = mf.Index[0], sf.Index[0]
	}
}

// Snapshot copies the current values.
func (m *Metrics) Snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	mv, sv := reflect.ValueOf(m).Elem(), reflect.ValueOf(&s).Elem()
	for _, r := range metricRows {
		if r.field == "" || r.snapshotOnly {
			continue
		}
		switch f := mv.Field(r.m).Addr().Interface().(type) {
		case *Counter:
			sv.Field(r.s).SetInt(f.Load())
		case *Gauge:
			sv.Field(r.s).SetInt(f.Load())
		case *Histogram:
			*sv.Field(r.s).Addr().Interface().(*HistogramSnapshot) = f.Snapshot()
		}
	}
	return s
}

// Sub returns the delta snapshot s - prev, counter by counter; the
// histogram and gauge fields keep s's values (deltas of latency
// distributions and instantaneous gauges are not meaningful).
func (s MetricsSnapshot) Sub(prev MetricsSnapshot) MetricsSnapshot {
	dv, pv := reflect.ValueOf(&s).Elem(), reflect.ValueOf(prev)
	for _, r := range metricRows {
		if r.counter {
			dv.Field(r.s).SetInt(dv.Field(r.s).Int() - pv.Field(r.s).Int())
		}
	}
	return s
}

// String renders the snapshot as a human-readable report, grouped the
// way the engine works: ingest, synchronization, snapshots, queries,
// storage.
func (s MetricsSnapshot) String() string {
	var b strings.Builder
	sv := reflect.ValueOf(s)
	for _, r := range metricRows {
		if r.field == "" {
			b.WriteString(r.label + ":\n")
			continue
		}
		padLabel(&b, r.label)
		if f := sv.Field(r.s); f.Kind() == reflect.Int64 {
			fmt.Fprintf(&b, "%d\n", f.Int())
		} else {
			b.WriteString(f.Interface().(HistogramSnapshot).String() + "\n")
		}
	}
	return b.String()
}
