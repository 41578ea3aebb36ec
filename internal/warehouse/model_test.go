package warehouse

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dimred/internal/caltime"
	"dimred/internal/core"
	"dimred/internal/ingest"
	"dimred/internal/mdm"
	"dimred/internal/query"
	"dimred/internal/spec"
	"dimred/internal/subcube"
	"dimred/internal/views"
)

// The warehouse's one oracle. A harness draws operations from every
// writer and applies each to the warehouse and to a model that shares no
// code with the apply path: the accepted fact history, the facts Ingest
// buffered, a mirrored specification and the clock. After every step the
// published side must store Definition 2 of the history at the last
// synchronization (core.ReduceInterpreted), and each battery query at the
// clock must answer what the MO algebra answers on the history reduced at
// the clock, asked both as a parsed query and by its text (through the
// plan the warehouse stored for it).

// Facts fall on days from modelStart to the clock, which opens at
// modelOpen and stops at modelEnd. Every day and URL is resolved before
// Open: the compiled program's domain is complete (the delta-only Sync
// runs), and no dimension grows beside the compactor.
var (
	modelStart = caltime.Date(2000, 1, 1)
	modelOpen  = caltime.Date(2000, 9, 1)
	modelEnd   = caltime.Date(2002, 6, 30)
)

const modelSeeds, modelSteps = 5, 60

// Days fold to months after two months, months to quarters after two
// quarters, and a quarter is deleted after four. The churn action folds a
// quarter three quarters old over every URL, so it is soon responsible for
// rows and Definition 4 refuses its delete. (Churn above the quarter, to
// the year, would fold cells the quarter-grained delete must later split.)
var (
	modelActions = []string{
		`aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`,
		`aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 2 quarters`,
		`delete where Time.quarter <= NOW - 4 quarters`,
	}
	modelChurn = `aggregate [Time.quarter, URL.TOP] where Time.quarter <= NOW - 3 quarters`
)

// recloneArms are the copy rules every seed runs under; the forced ones
// must leave every cell as the real one does.
var recloneArms = []struct {
	name    string
	reclone func(applied, left int) bool
}{
	{"rule", recloneRule},
	{"always", func(int, int) bool { return true }},
	{"never", func(int, int) bool { return false }},
}

// batteryQuery is one battery entry: a query text and its parse under
// the approaches the entry asks it with. A rare entry is asked on every
// third step only.
type batteryQuery struct {
	src  string
	q    subcube.Query
	rare bool
}

// modelBattery is the query battery asked at every step: the
// view-servable shapes, a predicated shape, and the quarter shape under
// every other approach — Liberal, Strict, Disaggregated, LUB and Weighted
// take the base path whether or not a view answered the default form.
// The next step asks the quarter shape by its text under the default
// approaches first, after LUB last: a plan QueryWith wrote its approaches
// into would answer it with LUB's raised target. The year × TOP shape,
// above two of the view shapes, is rare: its shape counts so seldom that
// under EnableViews' cap of one view the selector prefers year ×
// domain_grp once the cubes hold more rows than that view, and the year
// × TOP answer is that view folded.
func modelBattery(env *spec.Env) []batteryQuery {
	var out []batteryQuery
	with := func(src string, sel query.Approach, agg query.AggApproach) {
		q := subcube.MustParseQuery(src, env)
		q.Sel, q.Agg = sel, agg
		out = append(out, batteryQuery{src: src, q: q})
	}
	for _, src := range append(viewShapeQueries[:len(viewShapeQueries):len(viewShapeQueries)],
		`aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`) {
		with(src, query.Conservative, query.Availability)
	}
	const quarter = `aggregate [Time.quarter, URL.domain_grp]`
	with(quarter, query.Liberal, query.Availability)
	for _, agg := range []query.AggApproach{query.Strict, query.Disaggregated, query.LUB} {
		with(quarter, query.Conservative, agg)
	}
	with(`aggregate [Time.quarter, URL.domain_grp] where Time.month <= NOW - 1 months`, query.Weighted, query.Availability)
	with(`aggregate [Time.year, URL.TOP]`, query.Conservative, query.Availability)
	out[len(out)-1].rare = true
	return out
}

// byText asks b's text at the warehouse clock: through Query under the
// default approaches, through QueryWith under any other. Either reads the
// plan the warehouse stored for the text.
func (b batteryQuery) byText(w *Warehouse) (*mdm.MO, error) {
	if b.q.Sel == query.Conservative && b.q.Agg == query.Availability {
		return w.Query(b.src)
	}
	return w.QueryWith(b.src, b.q.Sel, b.q.Agg)
}

// byteSource reads the harness's choices off a byte string, one byte for
// a choice among at most 256 and two above, zeros once the bytes run out.
// A seed's input is its generator's bytes, so a harness seed is a fuzz
// input too.
type byteSource struct{ b []byte }

func (s *byteSource) Intn(n int) int {
	v := 0
	for k := 0; len(s.b) > 0 && (k == 0 || k == 1 && n > 256); k++ {
		v = v<<8 | int(s.b[0])
		s.b = s.b[1:]
	}
	return v % n
}

func modelInput(seed int64) []byte {
	b := make([]byte, 4096)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

type modelFact struct {
	refs []mdm.ValueID
	meas []float64
}

// modelOps are the operations the harness draws, each named by the
// method it exercises; one drawn twice as often is listed twice.
var modelOps = []struct {
	method string
	run    func(h *harness, src *byteSource)
}{
	{"Load", (*harness).load}, {"Load", (*harness).load},
	{"LoadBatch", (*harness).loadBatch}, {"LoadBatch", (*harness).loadBatch},
	{"Ingest", (*harness).ingest}, {"Ingest", (*harness).ingest},
	{"FlushIngest", (*harness).flushIngest},
	{"StartIngest", (*harness).startIngest},
	{"StopIngest", (*harness).stopIngest},
	{"AdvanceTo", (*harness).advanceTo}, {"AdvanceTo", (*harness).advanceTo}, {"AdvanceTo", (*harness).advanceTo},
	{"Sync", (*harness).sync},
	{"InsertActions", (*harness).insertActions},
	{"DeleteActions", (*harness).deleteActions},
	// EnableViews caps the views at one or at the default.
	{"EnableViews", func(h *harness, src *byteSource) { h.must(h.w.EnableViews(views.Config{MaxViews: src.Intn(2)})) }},
	{"RefreshViews", func(h *harness, _ *byteSource) { h.must(h.w.RefreshViews()) }},
	{"DisableViews", func(h *harness, _ *byteSource) { h.w.DisableViews(); h.noViews = true }},
	{"Save", (*harness).save},
}

// harness holds a warehouse and its model side by side.
type harness struct {
	t       testing.TB
	name    string
	w       *Warehouse
	env     *spec.Env
	days    []mdm.ValueID // per day since modelStart
	urls    []mdm.ValueID
	month   mdm.ValueID // a row carrying it is not at the bottom
	churn   *spec.Action
	battery []batteryQuery

	// The model.
	sp            *spec.Spec
	history       *mdm.MO // every fact a commit accepted, at the bottom
	pending       []modelFact
	now, lastSync caltime.Day
	ingesting     bool

	step    int
	op      string
	noViews bool // this step committed without a sync, so it published no views

	refused, unsynced int64 // refused DeleteActions, unsynchronized answers
}

func newHarness(t testing.TB, name string, reclone func(applied, left int) bool) *harness {
	obj, env := clickEnv(t)
	h := &harness{t: t, name: name, env: env, now: modelOpen, history: mdm.NewMO(obj.Schema)}
	for d := modelStart; d <= modelEnd; d++ {
		h.days = append(h.days, obj.Time.EnsureDay(d))
	}
	for i := 0; i < 10; i++ {
		h.urls = append(h.urls, obj.URL.MustEnsureURL(fmt.Sprintf("http://www.site%d.%s/page/%d", i%5, [2]string{"com", "org"}[i%2], i%3)))
	}
	h.month, _ = obj.Time.PeriodValue(caltime.PeriodOf(modelStart, caltime.UnitMonth))
	var actions []*spec.Action
	for i, src := range modelActions {
		actions = append(actions, spec.MustCompileString(fmt.Sprint("a", i), src, h.env))
	}
	h.churn = spec.MustCompileString("y", modelChurn, h.env)
	h.battery = modelBattery(h.env)
	var err error
	if h.w, err = Open(h.env, actions...); err != nil {
		t.Fatal(err)
	}
	h.w.reclone = reclone
	if h.sp, err = spec.New(h.env, actions...); err != nil {
		t.Fatal(err)
	}
	// The first advance synchronizes, so the model always has a last sync.
	h.must(h.w.AdvanceTo(modelOpen))
	h.lastSync = h.now
	return h
}

// run checks the opened warehouse, then applies up to steps operations
// drawn from src, checking after each, and joins any compactor.
func (h *harness) run(src *byteSource, steps int) {
	defer func() {
		if h.ingesting {
			h.must(h.w.StopIngest())
		}
	}()
	h.check()
	for h.step = 1; h.step <= steps && len(src.b) > 0; h.step++ {
		op := modelOps[src.Intn(len(modelOps))]
		h.apply(op.method, func() { op.run(h, src) })
	}
}

// apply runs one operation named by its method, then checks.
func (h *harness) apply(method string, run func()) {
	h.op, h.noViews = method, false
	run()
	h.check()
}

// play is a directed script: it applies the named model operations in
// order, each drawing its choices from src.
func (h *harness) play(src *byteSource, methods ...string) {
	h.t.Helper()
	for _, m := range methods {
		i := 0
		for i < len(modelOps) && modelOps[i].method != m {
			i++
		}
		if i == len(modelOps) {
			h.t.Fatalf("no model operation %s", m)
		}
		h.step++
		h.apply(m, func() { modelOps[i].run(h, src) })
	}
}

// times repeats a script n times.
func times(n int, methods ...string) []string {
	var out []string
	for ; n > 0; n-- {
		out = append(out, methods...)
	}
	return out
}

func (h *harness) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("%s, step %d (%s) at %v: %s", h.name, h.step, h.op, h.now, fmt.Sprintf(format, args...))
}

func (h *harness) must(err error) {
	h.t.Helper()
	if err != nil {
		h.fatalf("%v", err)
	}
}

// fact draws a fact on a recent day half the time, else on any day the
// clock has reached.
func (h *harness) fact(src *byteSource) modelFact {
	day := h.now - caltime.Day(src.Intn(7))
	if src.Intn(2) == 0 {
		day = modelStart + caltime.Day(src.Intn(int(h.now-modelStart)+1))
	}
	return modelFact{
		refs: []mdm.ValueID{h.days[max(day, modelStart)-modelStart], h.urls[src.Intn(len(h.urls))]},
		meas: []float64{1, float64(1 + src.Intn(9)), float64(1 + src.Intn(9)), float64(1 + src.Intn(50))},
	}
}

// reduce is Definition 2 of mo under the model's specification at t.
func (h *harness) reduce(mo *mdm.MO, t caltime.Day) *mdm.MO {
	h.t.Helper()
	res, err := core.ReduceInterpreted(h.sp, mo, t)
	h.must(err)
	return res.MO
}

// late reports whether Definition 2 at the last synchronization deletes
// f or lifts it above the bottom: whether f lands in a reduced region.
func (h *harness) late(f modelFact) bool {
	mo := mdm.NewMO(h.env.Schema)
	_, err := mo.AddFact(f.refs, f.meas)
	h.must(err)
	red := h.reduce(mo, h.lastSync)
	return red.Len() == 0 || !h.env.Schema.GranEq(red.Gran(0), h.env.Schema.BottomGranularity())
}

// accept adds facts to the history.
func (h *harness) accept(facts ...modelFact) {
	for _, f := range facts {
		_, err := h.history.AddFact(f.refs, f.meas)
		h.must(err)
	}
}

// foldPending is a fold of the buffered facts: one commit that
// synchronizes at the clock.
func (h *harness) foldPending() {
	if len(h.pending) > 0 {
		h.accept(h.pending...)
		h.pending = nil
		h.lastSync = h.now
	}
}

// load is Load, which runs one Sync exactly when the model calls the fact
// late.
func (h *harness) load(src *byteSource) { h.loadFact(h.fact(src)) }

func (h *harness) loadFact(f modelFact) {
	late := h.late(f)
	before := h.w.Metrics()
	h.must(h.w.Load(f.refs, f.meas))
	h.accept(f)
	if late {
		h.lastSync = h.now
	}
	h.noViews = !late
	if d := h.w.Metrics().Sub(before); (d.Syncs == 1) != late || d.Syncs > 1 {
		h.fatalf("the model calls the fact late=%v, and Load ran %d syncs", late, d.Syncs)
	}
}

// loadBatch is LoadBatch of up to eleven facts. An empty batch, or one
// with a bad row (a month value, or one ref short), publishes nothing.
func (h *harness) loadBatch(src *byteSource) {
	facts := make([]modelFact, src.Intn(12))
	for i := range facts {
		facts[i] = h.fact(src)
	}
	bad, short := -1, src.Intn(2) == 0
	if len(facts) > 0 && src.Intn(4) == 0 {
		bad = src.Intn(len(facts))
	}
	before := h.w.Metrics()
	err := h.w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
		for i, f := range facts {
			refs := f.refs
			if i == bad && short {
				refs = refs[:1]
			} else if i == bad {
				refs = []mdm.ValueID{h.month, refs[1]}
			}
			if err := load(refs, f.meas); err != nil {
				return err
			}
		}
		return nil
	})
	if (err != nil) != (bad >= 0) {
		h.fatalf("LoadBatch with bad row %d: %v", bad, err)
	}
	if bad >= 0 || len(facts) == 0 {
		if d := h.w.Metrics().Sub(before); d.SnapshotPublishes != 0 {
			h.fatalf("a refused or empty batch published %d snapshots", d.SnapshotPublishes)
		}
		return
	}
	h.accept(facts...)
	h.lastSync = h.now
}

// ingest is Ingest of up to six facts; a running compactor folds them
// before the check.
func (h *harness) ingest(src *byteSource) {
	for n := 1 + src.Intn(6); n > 0; n-- {
		f := h.fact(src)
		h.must(h.w.Ingest(f.refs, f.meas))
		h.pending = append(h.pending, f)
	}
	if h.ingesting {
		h.foldPending()
	}
}

// flushIngest is FlushIngest, which counts as late what the model calls
// late before the fold.
func (h *harness) flushIngest(*byteSource) {
	var late int64
	for _, f := range h.pending {
		if h.late(f) {
			late++
		}
	}
	before := h.w.Metrics()
	h.must(h.w.FlushIngest())
	if d := h.w.Metrics().Sub(before); d.IngestLate != late {
		h.fatalf("the flush counted %d late facts, the model %d", d.IngestLate, late)
	}
	h.foldPending()
}

// startIngest is StartIngest, refused while a compactor runs; a new
// compactor folds what is buffered.
func (h *harness) startIngest(*byteSource) {
	err := h.w.StartIngest(ingest.Config{MinBatch: 1})
	if (err != nil) != h.ingesting {
		h.fatalf("StartIngest with a compactor running=%v: %v", h.ingesting, err)
	}
	h.ingesting = true
	h.foldPending()
}

func (h *harness) stopIngest(*byteSource) {
	h.must(h.w.StopIngest())
	h.ingesting = false
}

// advanceTo is AdvanceTo back a few days (the clock stays), ahead within
// a period, or ahead by up to a quarter. It synchronizes on every move
// into another significant period (Section 7.2).
func (h *harness) advanceTo(src *byteSource) {
	to := h.now + caltime.Day(1+src.Intn(90))
	switch src.Intn(4) {
	case 0:
		to = h.now - caltime.Day(src.Intn(5))
	case 1:
		to = h.now + caltime.Day(src.Intn(10))
	}
	h.advance(min(to, modelEnd))
}

func (h *harness) advance(to caltime.Day) {
	h.must(h.w.AdvanceTo(to))
	if to < h.now {
		return
	}
	prev := h.now
	h.now = to
	if unit, timed := h.sp.SignificantPeriod(); timed && caltime.PeriodOf(prev, unit) != caltime.PeriodOf(to, unit) {
		h.lastSync = h.now
	}
}

func (h *harness) sync(*byteSource) {
	h.must(h.w.Sync())
	h.lastSync = h.now
}

// agree fails unless the warehouse and the model's specification both
// accepted a specification update, or both refused it and the
// specification is what refused it in the warehouse too. An accepted one
// lays the cubes out anew, synchronized at the clock, in a commit that
// runs no Sync round.
func (h *harness) agree(werr, merr error) {
	if (werr == nil) != (merr == nil) || werr != nil && !strings.HasPrefix(werr.Error(), "spec: ") {
		h.fatalf("the warehouse says %v, the model's specification %v", werr, merr)
	}
	if werr == nil {
		h.lastSync, h.noViews = h.now, true
	}
}

// insertActions inserts the churn action, refused while it is in.
func (h *harness) insertActions(*byteSource) {
	h.agree(h.w.InsertActions(h.churn), h.sp.Insert(h.churn))
}

// deleteActions deletes the churn action, refused while it is out and
// while Definition 4 finds it responsible for a stored row's level.
func (h *harness) deleteActions(*byteSource) {
	_, in := h.sp.ActionByName(h.churn.Name())
	stored := h.reduce(h.history, h.lastSync)
	werr := h.w.DeleteActions(h.churn.Name())
	h.agree(werr, h.sp.Delete(stored, h.now, h.churn.Name()))
	if in && werr != nil {
		h.refused++
	}
}

// save is Save, whose output loads into a warehouse that stores the same
// cells at the same clock.
func (h *harness) save(*byteSource) {
	var buf bytes.Buffer
	h.must(h.w.Save(&buf))
	w2, _, err := Load(&buf)
	h.must(err)
	if got, want := h.cells(w2), h.cells(h.w); got != want || w2.Now() != h.now {
		h.fatalf("the loaded snapshot stores at %v\n%s\nthe saved warehouse\n%s", w2.Now(), got, want)
	}
}

// cells renders the stored cells of w's published side.
func (h *harness) cells(w *Warehouse) string {
	mo, err := w.Materialize()
	h.must(err)
	return mo.DumpCells()
}

// check holds the warehouse to the model, once a running compactor has
// closed the ingest ledger.
func (h *harness) check() {
	h.t.Helper()
	w, met := h.w, h.w.met
	for deadline := time.Now().Add(10 * time.Second); h.ingesting && met.IngestQueued.Load() != met.IngestCompacted.Load()+met.IngestRejected.Load(); {
		if time.Now().After(deadline) {
			h.fatalf("the compactor left the ingest ledger open")
		}
		time.Sleep(20 * time.Microsecond)
	}
	m := w.Metrics()
	if m.IngestQueued != m.IngestCompacted+m.IngestRejected+m.IngestPending || m.IngestRejected != 0 ||
		m.IngestPending != int64(len(h.pending)) || m.FactsLoaded != int64(h.history.Len()) {
		h.fatalf("queued %d, compacted %d, rejected %d, pending %d, loaded %d; the model buffers %d and accepted %d",
			m.IngestQueued, m.IngestCompacted, m.IngestRejected, m.IngestPending, m.FactsLoaded, len(h.pending), h.history.Len())
	}
	if m.SyncsIncremental > m.Syncs {
		h.fatalf("%d incremental syncs of %d", m.SyncsIncremental, m.Syncs)
	}
	if last, ok := w.Cubes().LastSync(); w.Now() != h.now || !ok || last != h.lastSync {
		h.fatalf("clock %v, last sync %v (%v); the model's %v and %v", w.Now(), last, ok, h.now, h.lastSync)
	}
	stored := h.reduce(h.history, h.lastSync)
	if got, want := h.cells(w), stored.DumpCells(); got != want {
		h.fatalf("stored cells\n%s\nDefinition 2 of the history at the last sync\n%s", got, want)
	}
	if n, _ := w.ViewStats(); h.noViews && n != 0 {
		h.fatalf("%d views survived a commit that carried no sync", n)
	}
	if h.now != h.lastSync {
		stored = h.reduce(h.history, h.now)
	}
	for i, b := range h.battery {
		if b.rare && h.step%3 != 0 {
			continue
		}
		got, tr, err := w.QueryAtTraced(b.q, h.now)
		h.must(err)
		want, err := algebra(stored, b.q, h.now)
		h.must(err)
		if d := diffAnswers(got, want); d != "" {
			h.fatalf("query %d: %s\ngot:\n%s\nthe algebra:\n%s", i, d, got.DumpCells(), want.DumpCells())
		}
		if !tr.Synced {
			h.unsynced++
		}
		got, err = b.byText(w)
		h.must(err)
		if d := diffAnswers(got, want); d != "" {
			h.fatalf("query %d by its text: %s\ngot:\n%s\nthe algebra:\n%s", i, d, got.DumpCells(), want.DumpCells())
		}
	}
	w.wmu.Lock()
	defer w.wmu.Unlock()
	sidesLevel(h.t, w, fmt.Sprintf("%s, step %d (%s)", h.name, h.step, h.op))
}

// algebra answers q on a reduced MO with the MO algebra: selection, then
// aggregation.
func algebra(reduced *mdm.MO, q subcube.Query, t caltime.Day) (*mdm.MO, error) {
	if q.Pred == nil {
		return query.Aggregate(reduced, q.Target, q.Agg)
	}
	if q.Sel == query.Weighted {
		sel, weights, err := query.SelectWeighted(reduced, q.Pred, t)
		if err != nil {
			return nil, err
		}
		return query.AggregateWeighted(sel, weights, q.Target, q.Agg)
	}
	sel, err := query.Select(reduced, q.Pred, t, q.Sel)
	if err != nil {
		return nil, err
	}
	return query.Aggregate(sel, q.Target, q.Agg)
}

// diffAnswers describes the first difference between two answers, or
// returns "". Measures agree within a relative 1e-9: the weighted and
// disaggregated approaches scale by fractions, summed in another order
// by the engine than by the algebra.
func diffAnswers(got, want *mdm.MO) string {
	if got.Len() != want.Len() {
		return fmt.Sprintf("%d cells, want %d", got.Len(), want.Len())
	}
	idx := make(map[string]mdm.FactID, got.Len())
	for f := mdm.FactID(0); int(f) < got.Len(); f++ {
		idx[fmt.Sprint(got.Refs(f))] = f
	}
	for wf := mdm.FactID(0); int(wf) < want.Len(); wf++ {
		gf, ok := idx[fmt.Sprint(want.Refs(wf))]
		if !ok || got.BaseCount(gf) != want.BaseCount(wf) {
			return fmt.Sprintf("cell %s missing or with another base count", want.CellString(wf))
		}
		for j, v := range want.Measures(wf) {
			if g := got.Measure(gf, j); math.Abs(g-v) > 1e-9*max(1, math.Abs(g), math.Abs(v)) {
				return fmt.Sprintf("cell %s: measure %d = %v, want %v", want.CellString(wf), j, g, v)
			}
		}
	}
	return ""
}

// TestWarehouseMatchesModel runs every seed under every copy rule, the
// arms side by side, and holds the warehouse to the model after each
// step. Over its seeds each arm must reach every path below, and reclone
// exactly when the rule is not forced off.
func TestWarehouseMatchesModel(t *testing.T) {
	cov := make([]map[string]int64, len(recloneArms))
	t.Run("arms", func(t *testing.T) {
		for i, arm := range recloneArms {
			t.Run(arm.name, func(t *testing.T) {
				t.Parallel()
				cov[i] = map[string]int64{}
				for seed := int64(1); seed <= modelSeeds; seed++ {
					h := newHarness(t, fmt.Sprintf("%s seed %d", arm.name, seed), arm.reclone)
					h.run(&byteSource{modelInput(seed)}, modelSteps)
					m := h.w.Metrics()
					for what, n := range map[string]int64{
						"IngestLate": m.IngestLate, "SyncsIncremental": m.SyncsIncremental,
						"ViewHits": m.ViewHits, "exact view hits": m.ViewHits - m.ViewFolds, "ancestor view hits": m.ViewFolds,
						"FactsDeleted": m.FactsDeleted, "refused DeleteActions": h.refused,
						"unsynchronized answers": h.unsynced, "SnapshotReclones": m.SnapshotReclones,
					} {
						cov[i][what] += n
					}
				}
			})
		}
	})
	for i, arm := range recloneArms {
		for what, n := range cov[i] {
			if (n == 0) != (arm.name == "never" && what == "SnapshotReclones") {
				t.Errorf("the %s arm: %s = %d over its seeds", arm.name, what, n)
			}
		}
	}
}

// The directed scripts below hold one path each to the model, with the
// counter that proves the script reached it.

// TestDifferentialIngestVsReplayOracle: an out-of-order stream ingested
// through a running compactor, then through flushes, stores Definition 2
// of the history at every step, with late facts and deleted regions.
func TestDifferentialIngestVsReplayOracle(t *testing.T) {
	h := newHarness(t, "ingest", recloneRule)
	src := &byteSource{modelInput(7)}
	h.play(src, "StartIngest")
	h.play(src, times(15, "AdvanceTo", "Ingest", "Ingest")...)
	h.play(src, "StopIngest")
	h.play(src, times(10, "AdvanceTo", "Ingest", "FlushIngest")...)
	h.apply("AdvanceTo", func() { h.advance(modelEnd) })
	if m := h.w.Metrics(); m.IngestLate == 0 || m.IngestCompacted == 0 || m.FactsDeleted == 0 {
		t.Fatalf("late %d, compacted %d, deleted %d: the script missed a path", m.IngestLate, m.IngestCompacted, m.FactsDeleted)
	}
}

// TestLoadLateSingleFactMatchesReplayOracle: a Load of a fact in a
// reduced region runs one Sync with its commit, and the fact lands where
// Definition 2 puts it.
func TestLoadLateSingleFactMatchesReplayOracle(t *testing.T) {
	h := newHarness(t, "late load", recloneRule)
	h.play(&byteSource{modelInput(3)}, times(5, "LoadBatch", "AdvanceTo")...)
	f := modelFact{refs: []mdm.ValueID{h.days[3], h.urls[0]}, meas: []float64{1, 7, 2, 4}}
	if !h.late(f) {
		t.Fatal("the model does not call a fact of the first week late")
	}
	h.apply("Load", func() { h.loadFact(f) })
}

// TestIngestLateMatchesInterpreted: with no compactor running, each
// flush counts late exactly the facts the interpreted specification
// calls late.
func TestIngestLateMatchesInterpreted(t *testing.T) {
	h := newHarness(t, "late count", recloneRule)
	h.play(&byteSource{modelInput(9)}, times(15, "AdvanceTo", "Ingest", "Ingest", "FlushIngest")...)
	if h.w.Metrics().IngestLate == 0 {
		t.Fatal("no flush counted a late fact")
	}
}

// TestDifferentialSnapshotVsInterpretedOracle: batch loads, clock
// advances across synchronizations and specification churn store
// Definition 2 of the history under every copy rule.
func TestDifferentialSnapshotVsInterpretedOracle(t *testing.T) {
	for _, arm := range recloneArms {
		h := newHarness(t, "snapshot "+arm.name, arm.reclone)
		h.play(&byteSource{modelInput(11)}, times(4, "LoadBatch", "AdvanceTo", "InsertActions", "LoadBatch",
			"AdvanceTo", "AdvanceTo", "Sync", "DeleteActions", "Save")...)
		if m := h.w.Metrics(); (m.SnapshotReclones == 0) != (arm.name == "never") || m.FactsDeleted == 0 || h.refused == 0 {
			t.Fatalf("%s: %d reclones, %d facts deleted, %d refused DeleteActions", arm.name, m.SnapshotReclones, m.FactsDeleted, h.refused)
		}
	}
}

// TestDifferentialViewsVsBaseVsOracle: the battery answers as the MO
// algebra does with views on, refreshed, off and on again, across loads
// that publish no views and specification churn.
func TestDifferentialViewsVsBaseVsOracle(t *testing.T) {
	h := newHarness(t, "views", recloneRule)
	src := &byteSource{modelInput(5)}
	h.play(src, "EnableViews")
	h.play(src, times(6, "LoadBatch", "Load", "AdvanceTo", "RefreshViews")...)
	h.play(src, "InsertActions", "AdvanceTo", "RefreshViews", "DisableViews", "LoadBatch", "AdvanceTo",
		"EnableViews", "Load", "AdvanceTo", "DeleteActions", "RefreshViews", "LoadBatch")
	if m := h.w.Metrics(); m.ViewHits == 0 {
		t.Fatal("no view answered a query")
	}
}

// TestModelCoversEveryWriter: a writer joins the model as it joins the
// lock tables. Every writerCalls method has a model operation, and every
// model operation names a method of a lock table.
func TestModelCoversEveryWriter(t *testing.T) {
	modelled, tabled := map[string]bool{}, map[string]bool{}
	for _, op := range modelOps {
		modelled[op.method] = true
	}
	for _, entry := range writerCalls {
		for _, s := range entry {
			tabled[s.method] = true
			if !modelled[s.method] {
				t.Errorf("writer %s has no model operation", s.method)
			}
		}
	}
	for _, s := range readerCalls {
		tabled[s.method] = true
	}
	for m := range modelled {
		if !tabled[m] {
			t.Errorf("model operation %s names a method in neither lock table", m)
		}
	}
}

// FuzzWarehouseOps runs the harness on an operation sequence decoded from
// the input: the first byte picks the copy rule, the rest are the
// choices. The seed corpus is the first harness seeds' inputs.
func FuzzWarehouseOps(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(append([]byte{byte(seed)}, modelInput(seed)[:256]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		arm := recloneArms[int(data[0])%len(recloneArms)]
		newHarness(t, arm.name, arm.reclone).run(&byteSource{data[1:]}, 40)
	})
}
