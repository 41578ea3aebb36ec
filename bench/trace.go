package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dimred/internal/caltime"
	"dimred/internal/ingest"
	"dimred/internal/mdm"
	"dimred/internal/obs"
	"dimred/internal/query"
	"dimred/internal/spec"
	"dimred/internal/specexec"
	"dimred/internal/storage"
	"dimred/internal/subcube"
	"dimred/internal/views"
	"dimred/internal/warehouse"
)

// The traced run. The engine has no spans of its own yet, so the
// harness decomposes every traceEvery'th operation from outside: after
// the real call returns (its latency is the operation's own span) it
// re-runs the work layer by layer through each layer's public
// functions, on cube sets and buffers the harness owns, and records a
// span per call under a harness span whose parent is the operation:
// "decompose" holds the calls the operation itself is made of, in its
// own order; "probe" holds calls into layers that run nested inside
// those (the router under Sync, the MO algebra under Evaluate) or on
// another op's path (the delta buffer), timed on the operation's own
// rows. A re-run lies after the operation's interval, so it never
// counts against the operation's self time; what the decomposition does
// not account for is reported as warehouse.read_overhead_us and
// warehouse.commit_unattributed_ms. Spans stay in memory until the run
// ends.

// Span names the per-layer metrics are derived from.
const (
	layerHarness   = "harness"
	layerWarehouse = "warehouse"

	spanDecompose = "decompose"
	spanProbe     = "probe"
)

type tracer struct {
	origin time.Time

	mu     sync.Mutex // guards rec, nextID and nextOp
	nextID int
	nextOp int

	// quiet is held by the writer for the length of each of its ops (and
	// their decomposition) and try-locked by a concurrent reader before
	// it decomposes: the published cube set may only be cloned or
	// evaluated from outside while no writer op is in flight, because
	// the writer replays each op on the side it just retired.
	quiet sync.Mutex

	// Harness-owned state the decompositions run on, guarded by quiet in
	// a concurrent workload. private mirrors the published cube set
	// (metrics redirected, so the engine counters stay the script's);
	// pending is the pre-commit clone of the sampled commit in flight,
	// pendingOp that commit's op id.
	scratch   *obs.Metrics
	private   *subcube.CubeSet
	pending   *subcube.CubeSet
	pendingOp int
	hviews    *views.Set
	hbuf      *ingest.Buffer

	// rec is what the run recorded, guarded by mu: reader and writer both
	// record.
	rec traceData
}

// traceData is a traced run's record: its spans, and the samples no
// span carries.
type traceData struct {
	spans            []span
	readOverhead     []time.Duration
	commitUnattrib   []time.Duration
	replayShare      []float64
	snapshotBytes    int64
	snapshotLiveRows int64
}

// data returns the record once the run has ended.
func (t *tracer) data() traceData {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rec
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), scratch: obs.NewMetrics(), hbuf: ingest.NewBuffer(ingest.DefaultShards)}
}

// newOp returns the identifier the spans of one sampled operation share.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// add records a span and returns its id.
func (t *tracer) add(parent, op int, layer, name string, start, end time.Time, rows int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.rec.spans = append(t.rec.spans, span{
		ID: t.nextID, Parent: parent, Op: op, Layer: layer, Name: name,
		StartNs: start.Sub(t.origin).Nanoseconds(), EndNs: end.Sub(t.origin).Nanoseconds(), Rows: rows,
	})
	return t.nextID
}

// timed runs fn as a span.
func (t *tracer) timed(parent, op int, layer, name string, rows int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(parent, op, layer, name, start, end, rows)
	return end.Sub(start)
}

// open starts a harness span; close it with the returned func once its
// children are recorded.
func (t *tracer) open(parent, op int, name string) (id int, done func()) {
	start := time.Now()
	// The span's id is needed by its children before its end is known:
	// reserve it now, fill in the end on done.
	id = t.add(parent, op, layerHarness, name, start, start, 0)
	return id, func() {
		endNs := time.Since(t.origin).Nanoseconds()
		t.mu.Lock()
		defer t.mu.Unlock()
		for i := len(t.rec.spans) - 1; i >= 0; i-- {
			if t.rec.spans[i].ID == id {
				t.rec.spans[i].EndNs = endNs
				return
			}
		}
	}
}

// privateClone copies the published cube set for the harness's own use.
func (t *tracer) privateClone(w *warehouse.Warehouse) *subcube.CubeSet {
	cl := w.Cubes().Clone()
	cl.SetMetrics(t.scratch)
	return cl
}

// begin prepares a traced repetition: a private mirror of the set-up
// state and, with views on, the harness's own view set over it.
func (t *tracer) begin(r *runner) {
	t.private = t.privateClone(r.w)
	t.pending = nil
	t.hviews = nil
	if r.in.sz.views {
		t.hviews = t.buildViews(r, 0, 0, t.private, r.w.Now())
	}
}

// buildViews runs the view layer's select and build over cs as spans
// (parent 0 records nothing) and returns the built set.
func (t *tracer) buildViews(r *runner, parent, op int, cs *subcube.CubeSet, now caltime.Day) *views.Set {
	env := r.in.env
	layout := storage.Layout{DimCols: env.Schema.NumDims(), MeasCols: len(env.Schema.Measures)}
	var picked []views.Candidate
	sel := func() {
		picked = views.Select(views.Candidates(env, r.in.shapeCounts, int64(cs.TotalRows()), layout), views.Config{})
	}
	var set *views.Set
	build := func() { set = views.Build(env, cs, picked, now, views.Config{}, t.scratch) }
	if parent == 0 {
		sel()
		build()
		return set
	}
	t.timed(parent, op, "views", "Candidates+Select", len(r.in.shapeCounts), sel)
	t.timed(parent, op, "views", "Build", cs.TotalRows(), build)
	return set
}

// query decomposes one sampled read op.
func (t *tracer) query(r *runner, tpl *template, start, end time.Time) {
	if r.in.sz.concurrent {
		if !t.quiet.TryLock() {
			return // a writer op is in flight; leave this sample out
		}
		defer t.quiet.Unlock()
	}
	op := t.newOp()
	env, schema := r.in.env, r.in.env.Schema
	names := [...]string{opQuery: "Query", opQueryWith: "QueryWith", opQueryAt: "QueryAt"}
	root := t.add(0, op, layerWarehouse, names[tpl.kind], start, end, 0)
	parent, done := t.open(root, op, spanDecompose)

	var accounted time.Duration
	if tpl.kind != opQueryAt {
		accounted += t.timed(parent, op, "expr", "ParseQuery", 0, func() {
			_, _ = subcube.ParseQuery(tpl.src, env)
		})
	}
	q := tpl.q
	if t.hviews != nil && tpl.ahead == 0 && q.ViewEligible() {
		// The view path: the smallest fresh ancestor view, folded to the
		// target by query.Aggregate. The fold is timed on its own first
		// and placed at the end of Answer's span, where Answer runs it,
		// so the view layer's self time is what Answer adds to it.
		var fold time.Duration
		var rows int
		for _, v := range t.hviews.Views() {
			if spec.RollupReachableSchema(schema, v.Gran(), q.Target) {
				rows = v.Rows()
				t0 := time.Now()
				_, _ = query.Aggregate(v.MO(), q.Target, q.Agg)
				fold = time.Since(t0)
				break
			}
		}
		ansStart := time.Now()
		_, _ = t.hviews.Answer(schema, q, t.hviews.BuiltAt(), t.hviews.Generation())
		ansEnd := time.Now()
		ans := t.add(parent, op, "views", "Answer", ansStart, ansEnd, rows)
		t.add(ans, op, "query", "Aggregate", ansEnd.Add(-min(fold, ansEnd.Sub(ansStart))), ansEnd, rows)
		accounted += ansEnd.Sub(ansStart)
		done()
	} else {
		// The base path, on the private mirror.
		at := r.w.Now() + caltime.Day(tpl.ahead)
		if last, ok := t.private.LastSync(); ok && tpl.ahead == 0 {
			at = last
		}
		var otr obs.Trace
		evalStart := time.Now()
		_, _ = t.private.EvaluateTraced(q, at, &otr)
		evalEnd := time.Now()
		name := "Evaluate(unsynced)"
		if otr.Synced {
			name = "Evaluate(synced)"
		}
		eval := t.add(parent, op, "subcube", name, evalStart, evalEnd, otr.RowsScanned())
		accounted += evalEnd.Sub(evalStart)
		// obs.Trace carries durations, not instants: per-cube scans start
		// with the evaluation, the combine stage ends it.
		for _, c := range otr.Cubes {
			if !c.Pruned {
				t.add(eval, op, "subcube", "cube scan", evalStart, evalStart.Add(c.Duration), c.RowsScanned)
			}
		}
		for _, st := range otr.Stages {
			if st.Name == "combine + final aggregate" {
				t.add(eval, op, "query", "combine", evalEnd.Add(-st.Duration), evalEnd, otr.RowsKept())
			}
		}
		done()
		// The MO algebra over the largest cube, one layer at a time.
		parent, done = t.open(root, op, spanProbe)
		defer done()
		big := largestCube(t.private)
		var mo *mdm.MO
		t.timed(parent, op, "subcube", "Cube.MO", big.Rows(), func() { mo, _ = big.MO(schema) })
		if mo != nil {
			if q.Pred != nil {
				t.timed(parent, op, "query", "Select", mo.Len(), func() {
					var sel *mdm.MO
					var err error
					if q.Sel == query.Weighted {
						sel, _, err = query.SelectWeighted(mo, q.Pred, at)
					} else {
						sel, err = query.Select(mo, q.Pred, at, q.Sel)
					}
					if err == nil {
						mo = sel
					}
				})
			}
			t.timed(parent, op, "query", "Aggregate", mo.Len(), func() {
				_, _ = query.Aggregate(mo, q.Target, q.Agg)
			})
		}
	}
	t.mu.Lock()
	t.rec.readOverhead = append(t.rec.readOverhead, end.Sub(start)-accounted)
	t.mu.Unlock()
}

// beforeCommit clones the published cube set ahead of a sampled commit,
// so the decomposition can replay the batch on the pre-commit state.
func (t *tracer) beforeCommit(r *runner) {
	t.pendingOp = t.newOp()
	start := time.Now()
	t.pending = t.privateClone(r.w)
	t.add(0, t.pendingOp, "subcube", "Clone", start, time.Now(), t.pending.TotalRows())
}

// commit decomposes one sampled FlushIngest.
func (t *tracer) commit(r *runner, batch []arrival, start, end time.Time) {
	op := t.pendingOp
	root := t.add(0, op, layerWarehouse, "FlushIngest", start, end, 0)
	parent, done := t.open(root, op, spanDecompose)
	cl, now := t.pending, r.w.Now()
	t.pending = nil

	insert := t.timed(parent, op, "subcube", "Insert", len(batch), func() {
		for _, a := range batch {
			_ = cl.Insert(a.refs, a.meas)
		}
	})
	sync := t.timed(parent, op, "subcube", "Sync", cl.TotalRows(), func() { _, _ = cl.Sync(now) })
	var build time.Duration
	if r.in.sz.views {
		bstart := time.Now()
		t.hviews = t.buildViews(r, parent, op, cl, now)
		build = time.Since(bstart)
	}
	t.private = cl
	done()

	// Routing the batch, as the sync's mover scan does per row.
	parent, done = t.open(root, op, spanProbe)
	defer done()
	var prog *specexec.Program
	t.timed(parent, op, "specexec", "Compile", 0, func() { prog = specexec.Compile(cl.Spec()) })
	var router *specexec.Router
	t.timed(parent, op, "specexec", "At", 0, func() { router = prog.At(now) })
	level := make(mdm.Granularity, r.in.env.Schema.NumDims())
	t.timed(parent, op, "specexec", "AggLevelInto", len(batch), func() {
		for _, a := range batch {
			router.AggLevelInto(a.refs, level, nil)
		}
	})
	// Buffering the batch.
	t.timed(parent, op, "ingest", "Append", len(batch), func() {
		for _, a := range batch {
			t.hbuf.Append(a.refs, a.meas)
		}
	})
	t.timed(parent, op, "ingest", "Drain", len(batch), func() { _ = t.hbuf.Drain() })

	wall := end.Sub(start)
	t.mu.Lock()
	t.rec.commitUnattrib = append(t.rec.commitUnattrib, wall-insert-sync-build)
	if wall > 0 {
		// The left-right protocol applies the op a second time on the
		// retired side; its modeled cost is one more insert + sync.
		t.rec.replayShare = append(t.rec.replayShare, float64(insert+sync)/float64(wall))
	}
	t.mu.Unlock()
}

// churn decomposes one InsertActions/DeleteActions.
func (t *tracer) churn(r *runner, insert bool, start, end time.Time) {
	name := "DeleteActions"
	if insert {
		name = "InsertActions"
	}
	op := t.newOp()
	root := t.add(0, op, layerWarehouse, name, start, end, 0)
	parent, done := t.open(root, op, spanDecompose)
	defer done()
	in, now := r.in, r.w.Now()

	t.timed(parent, op, "spec", "CompileString", 0, func() {
		_, _ = spec.CompileString(churnActionName, churnActionSrc, in.env)
	})
	t.timed(parent, op, "spec", "New", len(in.actions)+1, func() {
		_, _ = spec.New(in.env, append(append([]*spec.Action(nil), in.actions...), in.churn)...)
	})
	// The layout rebuild, on the pre-op state the mirror still holds
	// (the real op already changed the published side).
	var cl *subcube.CubeSet
	t.timed(parent, op, "subcube", "Clone", t.private.TotalRows(), func() {
		cl = t.private.Clone()
		cl.SetMetrics(t.scratch)
	})
	sp := cl.Spec()
	if insert {
		if sp.Insert(in.churn) != nil {
			return
		}
	} else {
		var all *mdm.MO
		var err error
		t.timed(parent, op, "subcube", "Cube.MO", cl.TotalRows(), func() { all, err = materialize(cl, in.env.Schema) })
		if err != nil {
			return
		}
		t.timed(parent, op, "spec", "Delete", all.Len(), func() { err = sp.Delete(all, now, churnActionName) })
		if err != nil {
			return
		}
	}
	t.timed(parent, op, "subcube", "ApplySpec", cl.TotalRows(), func() { _ = cl.ApplySpec(sp, now) })
	t.private = cl
}

// end closes a traced repetition with the probes that run once on its
// final state: the storage layer over the largest cube's rows, and one
// Save/Load round trip.
func (t *tracer) end(r *runner) error {
	op := t.newOp()
	schema := r.in.env.Schema
	mo, err := largestCube(r.w.Cubes()).MO(schema)
	if err != nil {
		return err
	}
	n := mo.Len()
	st := storage.New(storage.Layout{DimCols: schema.NumDims(), MeasCols: len(schema.Measures)})
	t.timed(0, op, "storage", "Append", n, func() {
		for f := 0; f < n; f++ {
			fid := mdm.FactID(f)
			_, _ = st.Append(mo.Refs(fid), mo.Measures(fid), mo.BaseCount(fid))
		}
	})
	refs := make([]mdm.ValueID, schema.NumDims())
	var sink mdm.ValueID
	t.timed(0, op, "storage", "Scan", n, func() {
		st.Scan(func(row storage.RowID) bool {
			sink += st.Refs(row, refs)[0]
			return true
		})
	})
	_ = sink
	t.timed(0, op, "storage", "Clone", n, func() { _ = st.Clone() })

	var buf bytes.Buffer
	t.timed(0, op, layerWarehouse, "Save", r.w.Cubes().TotalRows(), func() { err = r.w.Save(&buf) })
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.rec.snapshotBytes, t.rec.snapshotLiveRows = int64(buf.Len()), int64(r.w.Cubes().TotalRows())
	t.mu.Unlock()
	t.timed(0, op, layerWarehouse, "Load", r.w.Cubes().TotalRows(), func() {
		_, _, err = warehouse.Load(bytes.NewReader(buf.Bytes()))
	})
	return err
}

func largestCube(cs *subcube.CubeSet) *subcube.Cube {
	var big *subcube.Cube
	for _, c := range cs.Cubes() {
		if big == nil || c.Rows() > big.Rows() {
			big = c
		}
	}
	return big
}

// durations returns the duration of every span with the given layer
// and name.
func (t traceData) durations(layer, name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, time.Duration(s.duration()))
		}
	}
	return out
}

// perRow returns total nanoseconds over total rows of the named spans.
func (t traceData) perRow(layer, name string) float64 {
	var ns, rows int64
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			ns += s.duration()
			rows += int64(s.Rows)
		}
	}
	if rows == 0 {
		return 0
	}
	return float64(ns) / float64(rows)
}

// layerShares reports, for each kind of operation, what share of the
// sampled operations' wall each layer's self time accounts for.
func (t traceData) layerShares() map[string]map[string]float64 {
	self := selfTimes(t.spans)
	byID := make(map[int]span, len(t.spans))
	for _, s := range t.spans {
		byID[s.ID] = s
	}
	// root resolves a span to its operation's own span; spans under a
	// probe duplicate work the decomposition already holds and are left
	// out.
	root := func(s span) (span, bool) {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok || p.Layer == layerHarness && p.Name == spanProbe {
				return span{}, false
			}
			s = p
		}
		return s, s.Layer == layerWarehouse
	}
	wall := map[string]int64{}
	sums := map[string]map[string]int64{}
	for _, s := range t.spans {
		r, ok := root(s)
		if !ok {
			continue
		}
		if s.ID == r.ID {
			wall[r.Name] += s.duration()
			continue
		}
		if s.Layer == layerHarness {
			continue
		}
		if sums[r.Name] == nil {
			sums[r.Name] = map[string]int64{}
		}
		sums[r.Name][s.Layer+"."+s.Name] += self[s.ID]
	}
	out := map[string]map[string]float64{}
	for opName, layers := range sums {
		out[opName] = map[string]float64{}
		for k, ns := range layers {
			if wall[opName] > 0 {
				out[opName][k] = float64(ns) / float64(wall[opName])
			}
		}
	}
	return out
}

// write stores the spans under dir as trace-<workload>.json.
func (t traceData) write(dir, workloadName string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workloadName+".json")
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
