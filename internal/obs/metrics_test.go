package obs

import (
	"reflect"
	"testing"
	"time"
)

// TestEveryMetricIsSnapshotSubtractedAndPrinted: Snapshot, Sub and
// String all walk metricRows, so a Counter, Gauge or Histogram added to
// Metrics ships fully wired exactly when the table describes it — once —
// and a MetricsSnapshot field the table does not describe is never
// printed. (That each name resolves to a metric and to a MetricsSnapshot
// field of the matching type, or to a snapshot-only field, is checked
// when the package initializes.)
func TestEveryMetricIsSnapshotSubtractedAndPrinted(t *testing.T) {
	described := map[string]int{}
	for _, r := range metricRows {
		if r.field != "" {
			described[r.field]++
		}
	}
	for _, typ := range []reflect.Type{reflect.TypeOf((*Metrics)(nil)).Elem(), reflect.TypeOf(MetricsSnapshot{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue // the clock seam
			}
			if described[f.Name] != 1 {
				t.Errorf("%s.%s is described %d times in metricRows, want once", typ.Name(), f.Name, described[f.Name])
			}
		}
	}
	if got := reflect.TypeOf(MetricsSnapshot{}).NumField(); len(described) != got {
		t.Errorf("metricRows describes %d fields, MetricsSnapshot has %d", len(described), got)
	}
}

// TestMetricsReportGolden pins the report byte for byte (dimred stats
// prints it) on a snapshot whose every field holds its own value, so a
// row reading the wrong field shows; and Sub on the same snapshot:
// counters subtract, gauges and histograms keep their value.
func TestMetricsReportGolden(t *testing.T) {
	var s MetricsSnapshot
	sv := reflect.ValueOf(&s).Elem()
	for i := 0; i < sv.NumField(); i++ {
		switch f := sv.Field(i).Addr().Interface().(type) {
		case *int64:
			*f = 100 + int64(i)
		case *HistogramSnapshot:
			d := time.Duration(i) * 37 * time.Microsecond
			*f = HistogramSnapshot{Count: int64(i), Sum: d * time.Duration(i), Max: 4 * d, Mean: d, P50: d, P95: 2 * d, P99: 3 * d}
		}
	}
	const want = `ingest:
  facts loaded              100
  batch loads               101
  rows appended             102
  rows merged in place      103
  ingest queued             128
  ingest compacted          129
  ingest late facts         130
  ingest rejected           131
  ingest pending            132
  compaction latency        n=40 mean=1.48ms p50≤1.48ms p95≤2.96ms max=5.92ms
synchronization:
  clock advances            104
  sync rounds               105
  sync rounds (delta only)  106
  cubes skipped (zone map)  107
  rows scanned              108
  rows folded               109
  facts deleted             110
  compactions               111
  spec rebuilds             112
  program cache hits        113
  program cache misses      114
  router cache hits         115
  program probes            116
  program bitset bytes      117
  sync latency              n=38 mean=1.41ms p50≤1.41ms p95≤2.81ms max=5.62ms
snapshots:
  publishes                 133
  drain waits               134
  side reclones             135
  rows levelled             136
  retained                  137
queries:
  queries                   118
  cubes consulted           119
  cubes pruned (zone map)   120
  rows scanned              121
  rows selected             122
  view hits                 123
  view hits folded          124
  view misses               125
  view builds               126
  view bytes                127
  query latency             n=39 mean=1.44ms p50≤1.44ms p95≤2.89ms max=5.77ms
storage:
  subcubes                  145
  live rows                 141
  dead rows                 143
  fact bytes                142
  dimension bytes           144
`
	if got := s.String(); got != want {
		t.Errorf("report changed:\n%s\nwant:\n%s", got, want)
	}

	d := s.Sub(s)
	if d.FactsLoaded != 0 || d.SnapshotLevelledRows != 0 {
		t.Errorf("Sub kept a counter: %d, %d", d.FactsLoaded, d.SnapshotLevelledRows)
	}
	if d.LiveRows != s.LiveRows || d.IngestPending != s.IngestPending || d.SyncDuration != s.SyncDuration {
		t.Errorf("Sub changed a gauge or a histogram: %+v", d)
	}
}
