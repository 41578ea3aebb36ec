package obs

import (
	"fmt"
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
	ProgramCompiles    Counter // spec→bitset program compilations
	ProgramCacheHits   Counter // program-cache hits (spec generation unchanged)
	ProgramCacheMisses Counter // program-cache misses forcing a compile
	RouterCacheHits    Counter // day-pinned router reuses from the cache
	ProgramProbes      Counter // per-row compiled router probes
	BitsetBytes        Gauge   // bitset bytes retained by the cached program

	// Query path.
	Queries        Counter // cube-set evaluations
	CubesConsulted Counter // subcubes scanned by queries
	CubesPruned    Counter // subcubes skipped by the zone map
	RowsScanned    Counter // rows visited by query scans
	RowsSelected   Counter // scanned rows surviving the predicate

	// Materialized rollup views (warehouse).
	ViewHits   Counter // queries answered from a materialized view
	ViewMisses Counter // view-eligible queries that fell back to the base subcubes
	ViewBuilds Counter // views materialized by commit-path refreshes
	ViewBytes  Gauge   // modeled bytes retained by the published view set

	// Streaming ingest (warehouse delta buffers).
	IngestQueued       Counter   // facts appended to the delta buffer
	IngestCompacted    Counter   // buffered facts folded into the subcube DAG
	IngestLate         Counter   // compacted facts landing inside an already-reduced region
	IngestRejected     Counter   // drained facts whose fold failed: queued = compacted + rejected + pending
	IngestPending      Gauge     // facts waiting in the delta buffer, refreshed on snapshot
	CompactionDuration Histogram // wall time per delta-fold compaction

	// Epoch-snapshot read path (warehouse).
	SnapshotPublishes    Counter // snapshots published by writers (including clock-only refreshes)
	SnapshotDrainWaits   Counter // publishes that had to wait for pinned readers to drain
	SnapshotReclones     Counter // commits whose retired side was dropped for a clone of the published one
	SnapshotLevelledRows Counter // rows copied into drained retired sides to level them (a cube copied whole counts every row)
	SnapshotEpoch        Gauge   // sequence number of the currently published snapshot
	SnapshotsRetained    Gauge   // retired snapshots awaiting reader drain and levelling

	// Storage gauges, refreshed on snapshot.
	LiveRows  Gauge // live rows across all cubes
	LiveBytes Gauge // modeled fact bytes across all cubes
	DeadRows  Gauge // tombstoned rows awaiting compaction
	DimBytes  Gauge // modeled dimension-table bytes
	CubeCount Gauge // physical subcubes in the layout
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
// retain and compare (e.g. before/after a bench run).
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

	ProgramCompiles    int64
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
	ViewMisses int64
	ViewBuilds int64
	ViewBytes  int64

	IngestQueued    int64
	IngestCompacted int64
	IngestLate      int64
	IngestRejected  int64
	IngestPending   int64

	SnapshotPublishes    int64
	SnapshotDrainWaits   int64
	SnapshotReclones     int64
	SnapshotLevelledRows int64
	SnapshotEpoch        int64
	SnapshotsRetained    int64

	SyncDuration       HistogramSnapshot
	QueryDuration      HistogramSnapshot
	CompactionDuration HistogramSnapshot

	LiveRows  int64
	LiveBytes int64
	DeadRows  int64
	DimBytes  int64
	CubeCount int64
}

// Snapshot copies the current values.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		FactsLoaded:  m.FactsLoaded.Load(),
		BatchLoads:   m.BatchLoads.Load(),
		RowsAppended: m.RowsAppended.Load(),
		RowsMerged:   m.RowsMerged.Load(),

		Advances:         m.Advances.Load(),
		Syncs:            m.Syncs.Load(),
		SyncsIncremental: m.SyncsIncremental.Load(),
		SyncSkips:        m.SyncSkips.Load(),
		SyncScanned:      m.SyncScanned.Load(),
		RowsFolded:       m.RowsFolded.Load(),
		FactsDeleted:     m.FactsDeleted.Load(),
		Compactions:      m.Compactions.Load(),
		SpecRebuilds:     m.SpecRebuilds.Load(),

		ProgramCompiles:    m.ProgramCompiles.Load(),
		ProgramCacheHits:   m.ProgramCacheHits.Load(),
		ProgramCacheMisses: m.ProgramCacheMisses.Load(),
		RouterCacheHits:    m.RouterCacheHits.Load(),
		ProgramProbes:      m.ProgramProbes.Load(),
		BitsetBytes:        m.BitsetBytes.Load(),

		Queries:        m.Queries.Load(),
		CubesConsulted: m.CubesConsulted.Load(),
		CubesPruned:    m.CubesPruned.Load(),
		RowsScanned:    m.RowsScanned.Load(),
		RowsSelected:   m.RowsSelected.Load(),

		ViewHits:   m.ViewHits.Load(),
		ViewMisses: m.ViewMisses.Load(),
		ViewBuilds: m.ViewBuilds.Load(),
		ViewBytes:  m.ViewBytes.Load(),

		IngestQueued:    m.IngestQueued.Load(),
		IngestCompacted: m.IngestCompacted.Load(),
		IngestLate:      m.IngestLate.Load(),
		IngestRejected:  m.IngestRejected.Load(),
		IngestPending:   m.IngestPending.Load(),

		SnapshotPublishes:    m.SnapshotPublishes.Load(),
		SnapshotDrainWaits:   m.SnapshotDrainWaits.Load(),
		SnapshotReclones:     m.SnapshotReclones.Load(),
		SnapshotLevelledRows: m.SnapshotLevelledRows.Load(),
		SnapshotEpoch:        m.SnapshotEpoch.Load(),
		SnapshotsRetained:    m.SnapshotsRetained.Load(),

		SyncDuration:       m.SyncDuration.Snapshot(),
		QueryDuration:      m.QueryDuration.Snapshot(),
		CompactionDuration: m.CompactionDuration.Snapshot(),

		LiveRows:  m.LiveRows.Load(),
		LiveBytes: m.LiveBytes.Load(),
		DeadRows:  m.DeadRows.Load(),
		DimBytes:  m.DimBytes.Load(),
		CubeCount: m.CubeCount.Load(),
	}
}

// Sub returns the delta snapshot s - prev, counter by counter; the
// histogram and gauge fields keep s's values (deltas of latency
// distributions and instantaneous gauges are not meaningful).
func (s MetricsSnapshot) Sub(prev MetricsSnapshot) MetricsSnapshot {
	d := s
	d.FactsLoaded -= prev.FactsLoaded
	d.BatchLoads -= prev.BatchLoads
	d.RowsAppended -= prev.RowsAppended
	d.RowsMerged -= prev.RowsMerged
	d.Advances -= prev.Advances
	d.Syncs -= prev.Syncs
	d.SyncsIncremental -= prev.SyncsIncremental
	d.SyncSkips -= prev.SyncSkips
	d.SyncScanned -= prev.SyncScanned
	d.RowsFolded -= prev.RowsFolded
	d.FactsDeleted -= prev.FactsDeleted
	d.Compactions -= prev.Compactions
	d.SpecRebuilds -= prev.SpecRebuilds
	d.ProgramCompiles -= prev.ProgramCompiles
	d.ProgramCacheHits -= prev.ProgramCacheHits
	d.ProgramCacheMisses -= prev.ProgramCacheMisses
	d.RouterCacheHits -= prev.RouterCacheHits
	d.ProgramProbes -= prev.ProgramProbes
	d.Queries -= prev.Queries
	d.CubesConsulted -= prev.CubesConsulted
	d.CubesPruned -= prev.CubesPruned
	d.RowsScanned -= prev.RowsScanned
	d.RowsSelected -= prev.RowsSelected
	d.ViewHits -= prev.ViewHits
	d.ViewMisses -= prev.ViewMisses
	d.ViewBuilds -= prev.ViewBuilds
	d.IngestQueued -= prev.IngestQueued
	d.IngestCompacted -= prev.IngestCompacted
	d.IngestLate -= prev.IngestLate
	d.IngestRejected -= prev.IngestRejected
	d.SnapshotPublishes -= prev.SnapshotPublishes
	d.SnapshotDrainWaits -= prev.SnapshotDrainWaits
	d.SnapshotReclones -= prev.SnapshotReclones
	d.SnapshotLevelledRows -= prev.SnapshotLevelledRows
	return d
}

// String renders the snapshot as a human-readable report, grouped the
// way the engine works: ingest, synchronization, queries, storage.
func (s MetricsSnapshot) String() string {
	var b strings.Builder
	b.WriteString("ingest:\n")
	row(&b, "facts loaded", s.FactsLoaded)
	row(&b, "batch loads", s.BatchLoads)
	row(&b, "rows appended", s.RowsAppended)
	row(&b, "rows merged in place", s.RowsMerged)
	row(&b, "ingest queued", s.IngestQueued)
	row(&b, "ingest compacted", s.IngestCompacted)
	row(&b, "ingest late facts", s.IngestLate)
	row(&b, "ingest rejected", s.IngestRejected)
	row(&b, "ingest pending", s.IngestPending)
	padLabel(&b, "compaction latency")
	b.WriteString(s.CompactionDuration.String())
	b.WriteByte('\n')

	b.WriteString("synchronization:\n")
	row(&b, "clock advances", s.Advances)
	row(&b, "sync rounds", s.Syncs)
	row(&b, "sync rounds (delta only)", s.SyncsIncremental)
	row(&b, "cubes skipped (zone map)", s.SyncSkips)
	row(&b, "rows scanned", s.SyncScanned)
	row(&b, "rows folded", s.RowsFolded)
	row(&b, "facts deleted", s.FactsDeleted)
	row(&b, "compactions", s.Compactions)
	row(&b, "spec rebuilds", s.SpecRebuilds)
	row(&b, "program compiles", s.ProgramCompiles)
	row(&b, "program cache hits", s.ProgramCacheHits)
	row(&b, "program cache misses", s.ProgramCacheMisses)
	row(&b, "router cache hits", s.RouterCacheHits)
	row(&b, "program probes", s.ProgramProbes)
	row(&b, "program bitset bytes", s.BitsetBytes)
	padLabel(&b, "sync latency")
	b.WriteString(s.SyncDuration.String())
	b.WriteByte('\n')

	b.WriteString("snapshots:\n")
	row(&b, "publishes", s.SnapshotPublishes)
	row(&b, "drain waits", s.SnapshotDrainWaits)
	row(&b, "side reclones", s.SnapshotReclones)
	row(&b, "rows levelled", s.SnapshotLevelledRows)
	row(&b, "epoch", s.SnapshotEpoch)
	row(&b, "retained", s.SnapshotsRetained)

	b.WriteString("queries:\n")
	row(&b, "queries", s.Queries)
	row(&b, "cubes consulted", s.CubesConsulted)
	row(&b, "cubes pruned (zone map)", s.CubesPruned)
	row(&b, "rows scanned", s.RowsScanned)
	row(&b, "rows selected", s.RowsSelected)
	row(&b, "view hits", s.ViewHits)
	row(&b, "view misses", s.ViewMisses)
	row(&b, "view builds", s.ViewBuilds)
	row(&b, "view bytes", s.ViewBytes)
	padLabel(&b, "query latency")
	b.WriteString(s.QueryDuration.String())
	b.WriteByte('\n')

	b.WriteString("storage:\n")
	row(&b, "subcubes", s.CubeCount)
	row(&b, "live rows", s.LiveRows)
	row(&b, "dead rows", s.DeadRows)
	row(&b, "fact bytes", s.LiveBytes)
	row(&b, "dimension bytes", s.DimBytes)
	return b.String()
}

func row(b *strings.Builder, label string, v int64) {
	padLabel(b, label)
	fmt.Fprintf(b, "%d\n", v)
}
