package main

import (
	"fmt"
	"time"
)

// metricDef names one metric of the benchmark. BENCHMARK.json lists the
// same names, units and bounds; bench_test.go holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd is what a user of the warehouse sees. Every workload reports
// all of them: from its named segment where the metric is native to it,
// otherwise from the short probe segment of the same script.
//
// The bounds are the widest the benchmark contract allows for anything
// timed: the builder's host slows identical repetitions by 10-20% for
// tens of seconds at a time (README, "Steadiness").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"query_p99_us", "us", "lower", 0.25},
	{"ingest_facts_per_s", "1/s", "higher", 0.25},
	{"fact_visible_p50_ms", "ms", "lower", 0.25},
	{"stored_bytes_per_fact", "B", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the single-layer metrics of the traced run, named
// <package>.<what>. They carry no bound.
var perLayer = []metricDef{
	{Name: "expr.parse_query_us", Unit: "us", Better: "lower"},
	{Name: "spec.check_ms", Unit: "ms", Better: "lower"},
	{Name: "spec.compile_action_us", Unit: "us", Better: "lower"},

	{Name: "specexec.compile_us", Unit: "us", Better: "lower"},
	{Name: "specexec.pin_us", Unit: "us", Better: "lower"},
	{Name: "specexec.probe_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "specexec.probes_per_fact", Unit: "count", Better: "lower"},
	{Name: "specexec.program_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "specexec.bitset_bytes", Unit: "B", Better: "lower"},

	{Name: "storage.scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "storage.append_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "storage.clone_us_per_krow", Unit: "us", Better: "lower"},
	{Name: "storage.dead_row_ratio", Unit: "ratio", Better: "lower"},

	{Name: "subcube.insert_ns_per_fact", Unit: "ns", Better: "lower"},
	{Name: "subcube.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "subcube.sync_scanned_per_fact", Unit: "count", Better: "lower"},
	{Name: "subcube.rows_folded_per_sync", Unit: "count", Better: "lower"},
	{Name: "subcube.sync_skip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "subcube.clone_ms", Unit: "ms", Better: "lower"},
	{Name: "subcube.applyspec_ms", Unit: "ms", Better: "lower"},
	{Name: "subcube.eval_synced_ms", Unit: "ms", Better: "lower"},
	{Name: "subcube.eval_unsynced_ms", Unit: "ms", Better: "lower"},
	{Name: "subcube.rows_scanned_per_query", Unit: "count", Better: "lower"},
	{Name: "subcube.rows_kept_ratio", Unit: "ratio", Better: "higher"},
	{Name: "subcube.cubes_pruned_ratio", Unit: "ratio", Better: "higher"},

	{Name: "query.select_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "query.aggregate_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "query.combine_us", Unit: "us", Better: "lower"},
	{Name: "query.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "query.alloc_bytes_per_op", Unit: "B", Better: "lower"},

	{Name: "views.answer_us", Unit: "us", Better: "lower"},
	{Name: "views.build_ms", Unit: "ms", Better: "lower"},
	{Name: "views.select_us", Unit: "us", Better: "lower"},
	{Name: "views.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "views.bytes", Unit: "B", Better: "lower"},
	{Name: "views.builds_per_commit", Unit: "count", Better: "lower"},

	{Name: "ingest.append_ns", Unit: "ns", Better: "lower"},
	{Name: "ingest.drain_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "ingest.late_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ingest.batch_size_mean", Unit: "count", Better: "higher"},

	{Name: "warehouse.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "warehouse.commit_unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "warehouse.replay_share", Unit: "ratio", Better: "lower"},
	{Name: "warehouse.publishes_per_kfact", Unit: "count", Better: "lower"},
	{Name: "warehouse.drain_waits_per_publish", Unit: "ratio", Better: "lower"},
	{Name: "warehouse.read_overhead_us", Unit: "us", Better: "lower"},
	{Name: "warehouse.save_ms", Unit: "ms", Better: "lower"},
	{Name: "warehouse.load_ms", Unit: "ms", Better: "lower"},
	{Name: "warehouse.snapshot_bytes_per_row", Unit: "B", Better: "lower"},
	// Demoted from the end-to-end list (README, "Steadiness"): the tail
	// of a few dozen group commits, one period-boundary fold and a few
	// churn ops per repetition are too few for a steady median.
	{Name: "warehouse.fact_visible_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "warehouse.advance_fold_ms", Unit: "ms", Better: "lower"},
	{Name: "warehouse.spec_churn_ms", Unit: "ms", Better: "lower"},
	// Demoted likewise: the closed-loop reader beside mixed_ops' writer
	// (0 elsewhere). Two busy goroutines and the collector on two shared
	// vCPUs moved these 25 % between runs of the same code.
	{Name: "warehouse.beside_queries_per_s", Unit: "1/s", Better: "higher"},
	{Name: "warehouse.beside_query_p50_us", Unit: "us", Better: "lower"},
	{Name: "warehouse.beside_query_p99_us", Unit: "us", Better: "lower"},

	{Name: "sched.syncs_per_advance", Unit: "ratio", Better: "lower"},

	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.heap_inuse_end_mb", Unit: "MB", Better: "lower"},

	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "failed_ops_ratio", Unit: "ratio", Better: "lower"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is (max-min)/median across the repetitions of this run,
	// where the metric is a per-rep figure; Note carries what the name
	// alone does not say (the percentile actually taken, sample counts).
	Spread float64 `json:"-"`
	Note   string  `json:"-"`
}

type metricSet map[string]value

func (ms metricSet) put(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			ms[name] = value{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not registered")
}

func (ms metricSet) annotate(name string, spread float64, note string) {
	v := ms[name]
	v.Spread, v.Note = spread, note
	ms[name] = v
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEndMetrics derives the end-to-end metrics from a run's
// repetitions. The repetitions replay one script from one state, so the
// run holds as many measurements of each op as it has repetitions (of
// each read template, many more), and what differs between them is the
// host. Each op is first given its quiet duration (quietShare); rates
// and percentiles are then taken over the script with every op at its
// quiet duration: a rate is ops over the sum, a percentile ranks the
// script's ops by what each costs. A stall or a collection that hits now
// one op and now another is therefore not in the tail — that is
// runtime.gc_pause_total_ms's to show; query_p99_us is what the dearest
// hundredth of the script's queries cost.
//
// mixed_ops' writer runs beside a second reader, and its ops are aligned
// like any other's: op i still meets the same writer-side state. What
// that reader's i-th query meets depends on how far the writer got, so
// its figures cannot be taken per op, moved twice as far between runs as
// the bound allows, and are per-layer metrics (warehouse.beside_*).
func endToEndMetrics(in *input, reps []*repResult, peakRSSMB float64) metricSet {
	ms := metricSet{}
	// put reports a metric beside the spread of what each repetition alone
	// measured (raw), which shows how disturbed the run was.
	put := func(name, note string, v float64, raw []float64) {
		ms.put(endToEnd, name, v)
		ms.annotate(name, spread(raw), note)
	}
	perRep := func(f func(*repResult) float64) []float64 {
		vs := make([]float64, len(reps))
		for i, r := range reps {
			vs[i] = f(r)
		}
		return vs
	}
	quantile := func(samples []time.Duration, p float64) time.Duration {
		return percentile(sortedDurations(samples), p)
	}
	column := func(f func(*repResult) []time.Duration) [][]time.Duration {
		out := make([][]time.Duration, len(reps))
		for i, r := range reps {
			out[i] = f(r)
		}
		return out
	}
	tailP, tailNote := tailPercentile(len(in.reads))

	// The read script with every query at its template's quiet latency,
	// pooled over all repetitions.
	pool := make([][]time.Duration, len(in.templates))
	for _, r := range reps {
		for i, d := range r.query {
			pool[in.reads[i]] = append(pool[in.reads[i]], d)
		}
	}
	cost := make([]time.Duration, len(pool))
	for ti, samples := range pool {
		cost[ti] = quietDuration(samples)
	}
	script := make([]time.Duration, len(in.reads))
	for i, ti := range in.reads {
		script[i] = cost[ti]
	}
	put("queries_per_s", "", ratio(float64(len(script)), sumDurations(script).Seconds()),
		perRep(func(r *repResult) float64 { return ratio(float64(len(r.query)), r.readWall.Seconds()) }))
	put("query_p50_us", "", micros(quantile(script, 0.5)),
		perRep(func(r *repResult) float64 { return micros(quantile(r.query, 0.5)) }))
	put("query_p99_us", tailNote, micros(quantile(script, tailP)),
		perRep(func(r *repResult) float64 { return micros(quantile(r.query, tailP)) }))

	// The write script with every op at its quiet duration, and every
	// fact at its quiet time to visibility.
	writes := quietAligned(column(func(r *repResult) []time.Duration { return r.writeOps }))
	visible := quietAligned(column(func(r *repResult) []time.Duration { return r.visible }))
	put("ingest_facts_per_s", "", ratio(float64(reps[0].facts), sumDurations(writes).Seconds()),
		perRep(func(r *repResult) float64 { return ratio(float64(r.facts), r.writeWall.Seconds()) }))
	put("fact_visible_p50_ms", "", millis(quantile(visible, 0.5)),
		perRep(func(r *repResult) float64 { return millis(quantile(r.visible, 0.5)) }))

	setups := make([]time.Duration, len(reps))
	for i, r := range reps {
		setups[i] = r.setup
	}
	put("setup_s", fmt.Sprintf("of %d set-ups", len(reps)), quietDuration(setups).Seconds(),
		perRep(func(r *repResult) float64 { return r.setup.Seconds() }))
	// Modeled and exact for a seed: every repetition reports the same.
	ms.put(endToEnd, "stored_bytes_per_fact", ratio(float64(reps[0].end.LiveBytes+reps[0].viewBytes), float64(reps[0].end.FactsLoaded)))
	ms.put(endToEnd, "peak_rss_mb", peakRSSMB)
	return ms
}

// churnPairs returns one sample per insert/delete pair of the churn
// action, the mean of the two ops: InsertActions and DeleteActions cost
// differently (the delete materializes every row for Definition 4's
// responsibility check), and the median of a two-cluster sample would
// sit on the gap between them.
func churnPairs(r *repResult) []time.Duration {
	pairs := make([]time.Duration, 0, len(r.churn)/2)
	for i := 0; i+1 < len(r.churn); i += 2 {
		pairs = append(pairs, (r.churn[i]+r.churn[i+1])/2)
	}
	return pairs
}

// perLayerMetrics derives the per-layer metrics: counts from the
// engine's own counters over one untraced repetition (exact in the
// single-goroutine workloads), times from the spans of the traced
// repetitions.
func perLayerMetrics(u *repResult, t traceData, tracedWall, untracedWall time.Duration, failedRatio float64) metricSet {
	ms := metricSet{}
	put := func(name string, v float64) { ms.put(perLayer, name, v) }
	med := func(layer, name string) time.Duration { return medianDuration(t.durations(layer, name)) }
	d, e := u.delta, u.end
	// The engine's counters cover both readers; allocation is measured
	// over the read segment alone.
	reads, facts, commits := float64(len(u.query)+len(u.beside)), float64(u.facts), float64(len(u.commit))

	put("expr.parse_query_us", micros(med("expr", "ParseQuery")))
	put("spec.check_ms", millis(med("spec", "New")))
	put("spec.compile_action_us", micros(med("spec", "CompileString")))

	put("specexec.compile_us", micros(med("specexec", "Compile")))
	put("specexec.pin_us", micros(med("specexec", "At")))
	put("specexec.probe_ns_per_row", t.perRow("specexec", "AggLevelInto"))
	put("specexec.probes_per_fact", ratio(float64(d.ProgramProbes), facts))
	put("specexec.program_cache_hit_ratio", ratio(float64(d.ProgramCacheHits), float64(d.ProgramCacheHits+d.ProgramCacheMisses)))
	put("specexec.bitset_bytes", float64(e.BitsetBytes))

	put("storage.scan_ns_per_row", t.perRow("storage", "Scan"))
	put("storage.append_ns_per_row", t.perRow("storage", "Append"))
	put("storage.clone_us_per_krow", t.perRow("storage", "Clone")) // ns/row == us/krow
	put("storage.dead_row_ratio", ratio(float64(e.DeadRows), float64(e.DeadRows+e.LiveRows)))

	put("subcube.insert_ns_per_fact", t.perRow("subcube", "Insert"))
	put("subcube.sync_ms", millis(med("subcube", "Sync")))
	put("subcube.sync_scanned_per_fact", ratio(float64(d.SyncScanned), facts))
	put("subcube.rows_folded_per_sync", ratio(float64(d.RowsFolded), float64(d.Syncs)))
	put("subcube.sync_skip_ratio", ratio(float64(d.SyncSkips), float64(d.Syncs*e.CubeCount)))
	put("subcube.clone_ms", millis(med("subcube", "Clone")))
	put("subcube.applyspec_ms", millis(med("subcube", "ApplySpec")))
	put("subcube.eval_synced_ms", millis(med("subcube", "Evaluate(synced)")))
	put("subcube.eval_unsynced_ms", millis(med("subcube", "Evaluate(unsynced)")))
	put("subcube.rows_scanned_per_query", ratio(float64(d.RowsScanned), reads))
	put("subcube.rows_kept_ratio", ratio(float64(d.RowsSelected), float64(d.RowsScanned)))
	put("subcube.cubes_pruned_ratio", ratio(float64(d.CubesPruned), float64(d.CubesPruned+d.CubesConsulted)))

	put("query.select_ns_per_row", t.perRow("query", "Select"))
	put("query.aggregate_ns_per_row", t.perRow("query", "Aggregate"))
	put("query.combine_us", micros(med("query", "combine")))
	put("query.allocs_per_op", ratio(float64(u.readMallocs), float64(len(u.query))))
	put("query.alloc_bytes_per_op", ratio(float64(u.readBytes), float64(len(u.query))))

	put("views.answer_us", micros(med("views", "Answer")))
	put("views.build_ms", millis(med("views", "Build")))
	put("views.select_us", micros(med("views", "Candidates+Select")))
	put("views.hit_ratio", ratio(float64(d.ViewHits), float64(d.ViewHits+d.ViewMisses)))
	put("views.bytes", float64(u.viewBytes))
	put("views.builds_per_commit", ratio(float64(d.ViewBuilds), commits))

	put("ingest.append_ns", t.perRow("ingest", "Append"))
	put("ingest.drain_us_per_batch", micros(med("ingest", "Drain")))
	put("ingest.late_ratio", ratio(float64(d.IngestLate), float64(d.IngestCompacted)))
	put("ingest.batch_size_mean", ratio(float64(d.IngestCompacted), commits))

	put("warehouse.commit_ms", millis(medianDuration(u.commit)))
	put("warehouse.commit_unattributed_ms", millis(medianDuration(t.commitUnattrib)))
	put("warehouse.replay_share", median(t.replayShare))
	put("warehouse.publishes_per_kfact", 1000*ratio(float64(d.SnapshotPublishes), facts))
	put("warehouse.drain_waits_per_publish", ratio(float64(d.SnapshotDrainWaits), float64(d.SnapshotPublishes)))
	put("warehouse.read_overhead_us", micros(medianDuration(t.readOverhead)))
	put("warehouse.save_ms", millis(med(layerWarehouse, "Save")))
	put("warehouse.load_ms", millis(med(layerWarehouse, "Load")))
	put("warehouse.snapshot_bytes_per_row", ratio(float64(t.snapshotBytes), float64(t.snapshotLiveRows)))
	// The facts of one group commit become visible together: the tail's
	// independent observations are the commits, not the facts.
	p, _ := tailPercentile(len(u.commit))
	put("warehouse.fact_visible_tail_ms", millis(percentile(sortedDurations(u.visible), p)))
	put("warehouse.advance_fold_ms", millis(medianDuration(u.fold)))
	put("warehouse.spec_churn_ms", millis(medianDuration(churnPairs(u))))
	beside := sortedDurations(u.beside)
	p, _ = tailPercentile(len(beside))
	put("warehouse.beside_queries_per_s", ratio(float64(len(beside)), u.writeWall.Seconds()))
	put("warehouse.beside_query_p50_us", micros(percentile(beside, 0.5)))
	put("warehouse.beside_query_p99_us", micros(percentile(beside, p)))

	put("sched.syncs_per_advance", ratio(float64(len(u.fold)), float64(len(u.advance))))

	put("runtime.gc_pause_total_ms", float64(u.gcPauseNs)/1e6)
	put("runtime.gc_cycles", float64(u.gcCycles))
	put("runtime.heap_inuse_end_mb", float64(u.heapInuse)/(1<<20))

	put("trace_overhead_ratio", ratio(float64(tracedWall), float64(untracedWall))-1)
	put("failed_ops_ratio", failedRatio)
	return ms
}
