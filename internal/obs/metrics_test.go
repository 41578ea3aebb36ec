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
  ingest queued             129
  ingest compacted          130
  ingest late facts         131
  ingest rejected           132
  ingest pending            133
  compaction latency        n=42 mean=1.55ms p50<1.55ms p95<3.11ms max=6.22ms
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
  program compiles          113
  program cache hits        114
  program cache misses      115
  router cache hits         116
  program probes            117
  program bitset bytes      118
  sync latency              n=40 mean=1.48ms p50<1.48ms p95<2.96ms max=5.92ms
snapshots:
  publishes                 134
  drain waits               135
  side reclones             136
  rows levelled             137
  epoch                     138
  retained                  139
queries:
  queries                   119
  cubes consulted           120
  cubes pruned (zone map)   121
  rows scanned              122
  rows selected             123
  view hits                 124
  view hits folded          125
  view misses               126
  view builds               127
  view bytes                128
  query latency             n=41 mean=1.52ms p50<1.52ms p95<3.03ms max=6.07ms
storage:
  subcubes                  147
  live rows                 143
  dead rows                 145
  fact bytes                144
  dimension bytes           146
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
