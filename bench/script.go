package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dimred/internal/caltime"
	"dimred/internal/ingest"
	"dimred/internal/mdm"
	"dimred/internal/obs"
	"dimred/internal/views"
	"dimred/internal/warehouse"
)

// setUp builds one repetition's warehouse through the public API: open
// under the specification, bulk-load the history at its first day, let
// time pass to the set-up day (the big initial fold), and — with views
// on — ask every shape of the read script once so EnableViews has a
// trace to select from. Its wall time is the setup_s metric.
func setUp(in *input) (*warehouse.Warehouse, error) {
	w, err := warehouse.Open(in.env, in.actions...)
	if err != nil {
		return nil, err
	}
	if err := w.AdvanceTo(historyStart); err != nil {
		return nil, err
	}
	err = w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
		for _, f := range in.setup {
			if err := load(f.refs, f.meas); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := w.AdvanceTo(in.sz.setupDay()); err != nil {
		return nil, err
	}
	if in.sz.views {
		seen := map[int]bool{}
		for _, ti := range in.reads {
			if tpl := in.templates[ti]; !seen[ti] && tpl.q.ViewEligible() {
				seen[ti] = true
				if _, err := w.Query(tpl.src); err != nil {
					return nil, err
				}
			}
		}
		if err := w.EnableViews(views.Config{}); err != nil {
			return nil, err
		}
	}
	// A compactor that never reaches its batch size: every commit of the
	// script is the explicit FlushIngest, so group commits are
	// deterministic.
	if err := w.StartIngest(ingest.Config{MinBatch: 1 << 30}); err != nil {
		return nil, err
	}
	return w, nil
}

// repResult is what one repetition of a workload's script measured.
type repResult struct {
	setup time.Duration

	query   []time.Duration // one per op of the read segment
	beside  []time.Duration // one per query the concurrent reader asked beside the writer
	visible []time.Duration // one per fact: Ingest return -> publishing FlushIngest return
	// writeOps partitions the write segment in script order: one entry
	// per AdvanceTo, per churn op and per group commit (its Ingest calls
	// and its FlushIngest). The script is fixed, so entry i is the same
	// op on the same state in every repetition.
	writeOps []time.Duration
	commit   []time.Duration // one per FlushIngest
	advance  []time.Duration // one per AdvanceTo
	fold     []time.Duration // the AdvanceTo calls that synchronized
	churn    []time.Duration // one per InsertActions/DeleteActions

	readWall, writeWall, wall time.Duration
	facts                     int
	ops, errs                 int64

	delta  obs.MetricsSnapshot // counters over the script
	end    obs.MetricsSnapshot // absolute values after it
	loaded int64
	// viewBytes is the published view set's modeled size after the last
	// group commit (a churn op that may follow publishes view-free).
	viewBytes int64

	// Allocation over the read segment, GC over the whole script.
	readMallocs, readBytes uint64
	gcPauseNs              uint64
	gcCycles               uint32
	heapInuse              uint64

	// last holds the read segment's last answer per template, checked
	// against the oracle after the timed phase.
	last []*mdm.MO
	// atomicFailure is the first batch-atomicity violation a concurrent
	// reader saw, "" for none.
	atomicFailure string
	// final is the stored state after the script, and quiescent one
	// answer per template taken after a concurrent script ended.
	final     *mdm.MO
	quiescent []*mdm.MO
}

// runner executes one repetition's script against a warehouse.
type runner struct {
	in  *input
	w   *warehouse.Warehouse
	tr  *tracer // nil outside traced repetitions
	res *repResult

	// Reader-side tallies, merged into res once the reader has joined
	// (the writer goroutine owns res.ops and res.errs meanwhile).
	readOps, readErrs int64
}

// runScript runs the workload's script once: read segment, then write
// segment — beside which, in a concurrent workload, a second reader
// cycles through the read script on its own goroutine.
func runScript(in *input, w *warehouse.Warehouse, tr *tracer) (*repResult, error) {
	r := &runner{in: in, w: w, tr: tr, res: &repResult{last: make([]*mdm.MO, len(in.templates))}}
	res := r.res
	// Sample slices at their final size: no growth inside the timed loops.
	res.query = make([]time.Duration, 0, len(in.reads))
	res.visible = make([]time.Duration, 0, len(in.replay))
	res.commit = make([]time.Duration, 0, len(in.replay)/flushEvery+1)
	res.writeOps = make([]time.Duration, 0, len(in.replay)/flushEvery+1+2*in.sz.replayDays)
	if tr != nil {
		tr.begin(r)
	}
	before := w.Metrics()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()

	r.readSegment(nil)
	res.readWall = time.Since(start)
	runtime.ReadMemStats(&m1)
	wstart := time.Now()
	if in.sz.concurrent {
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.readSegment(&stop)
		}()
		r.writeSegment()
		stop.Store(true)
		wg.Wait()
	} else {
		r.writeSegment()
	}
	res.writeWall = time.Since(wstart)
	res.wall = time.Since(start)
	res.ops += r.readOps
	res.errs += r.readErrs
	runtime.ReadMemStats(&m2)
	res.readMallocs, res.readBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	res.gcPauseNs, res.gcCycles, res.heapInuse = m2.PauseTotalNs-m0.PauseTotalNs, m2.NumGC-m0.NumGC, m2.HeapInuse

	res.end = w.Metrics()
	res.delta = res.end.Sub(before)
	res.loaded = w.Stats().LoadedFacts

	// Outside the timed phase: what the oracle will want to see.
	var err error
	if res.final, err = materialize(w.Cubes(), in.env.Schema); err != nil {
		return nil, err
	}
	if in.sz.concurrent {
		res.quiescent = make([]*mdm.MO, len(in.templates))
		for ti := range in.templates {
			if res.quiescent[ti], err = r.ask(&in.templates[ti]); err != nil {
				return nil, fmt.Errorf("quiescent %s: %w", in.templates[ti].name, err)
			}
		}
	}
	if tr != nil {
		if err := tr.end(r); err != nil {
			return nil, err
		}
	}
	if err := w.StopIngest(); err != nil {
		return nil, err
	}
	return res, nil
}

// ask issues one read op through the public API.
func (r *runner) ask(tpl *template) (*mdm.MO, error) {
	switch tpl.kind {
	case opQueryWith:
		return r.w.QueryWith(tpl.src, tpl.sel, tpl.agg)
	case opQueryAt:
		return r.w.QueryAt(tpl.q, r.w.Now()+caltime.Day(tpl.ahead))
	}
	return r.w.Query(tpl.src)
}

// readSegment is the closed-loop reader: the read script once, or —
// beside a writer — around and around until the writer ends.
func (r *runner) readSegment(stop *atomic.Bool) {
	in, res := r.in, r.res
	if len(in.reads) == 0 {
		return
	}
	nSetup, nReplay := len(in.setup), len(in.replay)
	// The traced run decomposes every traceEvery'th op of each template,
	// from its first: a stride over all ops could pass a rare template by.
	drawn := make([]int, len(in.templates))
	for i := 0; ; i++ {
		if stop == nil && i == len(in.reads) || stop != nil && stop.Load() {
			return
		}
		ti := in.reads[i%len(in.reads)]
		tpl := &in.templates[ti]
		t0 := time.Now()
		mo, err := r.ask(tpl)
		t1 := time.Now()
		r.readOps++
		if stop == nil {
			res.query = append(res.query, t1.Sub(t0))
		} else {
			res.beside = append(res.beside, t1.Sub(t0))
		}
		if err != nil {
			r.readErrs++
			continue
		}
		if stop == nil {
			res.last[ti] = mo
		} else if tpl.q.ViewEligible() && res.atomicFailure == "" {
			res.atomicFailure = checkAtomic(mo, nSetup, nReplay)
		}
		if r.tr != nil && drawn[ti]%traceEvery == 0 {
			r.tr.query(r, tpl, t0, t1)
		}
		drawn[ti]++
	}
}

// writeSegment replays the arrival stream: advance the clock on each
// new arrival day, Ingest every fact, FlushIngest every flushEvery
// facts, and (where the sizes say so) insert and delete the churn
// action on a day cadence.
func (r *runner) writeSegment() {
	in, res := r.in, r.res
	sz := in.sz
	ingested := make([]time.Time, 0, flushEvery)
	today := sz.setupDay()
	churnSince := -1 // replay day the churn action was inserted on, -1 when absent
	batchStart := 0
	var batchT0 time.Time
	for i, a := range in.replay {
		if a.day != today {
			today = a.day
			r.advanceTo(today)
			dayIdx := int(today - sz.setupDay())
			if sz.churnEvery > 0 {
				if churnSince >= 0 && dayIdx >= churnSince+sz.churnHold {
					r.churnOp(false)
					churnSince = -1
				} else if churnSince < 0 && dayIdx%sz.churnEvery == 0 {
					r.churnOp(true)
					churnSince = dayIdx
				}
			}
		}
		if len(ingested) == 0 {
			batchT0 = time.Now()
		}
		res.ops++
		if err := r.w.Ingest(a.refs, a.meas); err != nil {
			res.errs++
		}
		ingested = append(ingested, time.Now())
		res.facts++
		if len(ingested) == flushEvery || i == len(in.replay)-1 {
			r.flush(batchT0, ingested, in.replay[batchStart:i+1])
			ingested = ingested[:0]
			batchStart = i + 1
		}
	}
	_, res.viewBytes = r.w.ViewStats()
	if churnSince >= 0 {
		r.churnOp(false)
	}
}

// writerOp brackets a writer-side warehouse call for the traced run of
// a concurrent workload: the reader decomposes its ops on the published
// cube set only while no writer op is in flight.
func (r *runner) writerOp(fn func()) {
	if r.tr != nil {
		r.tr.quiet.Lock()
		defer r.tr.quiet.Unlock()
	}
	fn()
}

func (r *runner) advanceTo(day caltime.Day) {
	r.writerOp(func() {
		res := r.res
		lastBefore, _ := r.w.Cubes().LastSync()
		t0 := time.Now()
		err := r.w.AdvanceTo(day)
		d := time.Since(t0)
		res.ops++
		if err != nil {
			res.errs++
			return
		}
		res.advance = append(res.advance, d)
		res.writeOps = append(res.writeOps, d)
		// A period-boundary advance synchronizes at the new clock.
		if last, ok := r.w.Cubes().LastSync(); ok && last == day && last != lastBefore {
			res.fold = append(res.fold, d)
		}
	})
}

func (r *runner) flush(batchT0 time.Time, ingested []time.Time, batch []arrival) {
	r.writerOp(func() {
		res := r.res
		sampled := r.tr != nil && len(res.commit)%traceEvery == 0
		if sampled {
			r.tr.beforeCommit(r)
		}
		t0 := time.Now()
		err := r.w.FlushIngest()
		t1 := time.Now()
		res.ops++
		if err != nil {
			res.errs++
			return
		}
		res.commit = append(res.commit, t1.Sub(t0))
		res.writeOps = append(res.writeOps, t1.Sub(batchT0))
		for _, at := range ingested {
			res.visible = append(res.visible, t1.Sub(at))
		}
		if sampled {
			r.tr.commit(r, batch, t0, t1)
		}
	})
}

// churnOp inserts (or deletes) the churn action.
func (r *runner) churnOp(insert bool) {
	r.writerOp(func() {
		res := r.res
		t0 := time.Now()
		var err error
		if insert {
			err = r.w.InsertActions(r.in.churn)
		} else {
			err = r.w.DeleteActions(churnActionName)
		}
		t1 := time.Now()
		res.ops++
		if err != nil {
			res.errs++
			return
		}
		res.churn = append(res.churn, t1.Sub(t0))
		res.writeOps = append(res.writeOps, t1.Sub(t0))
		if r.tr != nil {
			r.tr.churn(r, insert, t0, t1)
		}
	})
}
