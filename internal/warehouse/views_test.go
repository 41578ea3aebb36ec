package warehouse

import (
	"maps"
	"strings"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/query"
	"dimred/internal/spec"
	"dimred/internal/subcube"
	"dimred/internal/views"
	"dimred/internal/workload"
)

// viewShapeQueries is a battery of view-eligible (predicate-free,
// availability) query shapes over the click schema.
var viewShapeQueries = []string{
	`aggregate [Time.month, URL.domain]`,
	`aggregate [Time.quarter, URL.domain]`,
	`aggregate [Time.quarter, URL.domain_grp]`,
	`aggregate [Time.year, URL.domain_grp]`,
}

// openViewWarehouse loads a synced click warehouse, records the shape
// battery, and enables views so every shape is materialized.
func openViewWarehouse(t *testing.T) (*Warehouse, *workload.ClickObject) {
	t.Helper()
	w, obj := openClickWarehouse(t)
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(start); err != nil {
		t.Fatal(err)
	}
	cfg := workload.ClickConfig{Seed: 11, Start: start, Days: 120, ClicksPerDay: 40, Domains: 6, URLsPerDomain: 4}
	loadStream(t, w, obj, cfg)
	// Record the shapes the selector should learn, then refresh.
	for _, src := range viewShapeQueries {
		if _, err := w.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.EnableViews(views.Config{}); err != nil {
		t.Fatal(err)
	}
	return w, obj
}

func TestWarehouseViewServing(t *testing.T) {
	w, _ := openViewWarehouse(t)
	if n, bytes := w.ViewStats(); n == 0 || bytes <= 0 {
		t.Fatalf("no views published: count=%d bytes=%d", n, bytes)
	}
	before := w.Metrics()
	if before.ViewBuilds == 0 || before.ViewBytes <= 0 {
		t.Fatalf("view build counters empty: %+v", before)
	}

	// Every recorded shape must now be view-served, byte-identical to
	// the base path (answered with views disabled).
	viewAnswers := make([]string, len(viewShapeQueries))
	for i, src := range viewShapeQueries {
		mo, err := w.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		viewAnswers[i] = mo.DumpCells()
	}
	after := w.Metrics().Sub(before)
	if after.ViewHits != int64(len(viewShapeQueries)) {
		t.Fatalf("ViewHits = %d, want %d (misses %d)", after.ViewHits, len(viewShapeQueries), after.ViewMisses)
	}
	if after.Queries != 0 {
		t.Fatalf("view-served queries still ran %d base evaluations", after.Queries)
	}

	// A traced query runs the plan the untraced one runs: the same
	// view hit, the same answer, one views.Answer stage and no cube scan.
	for i, src := range viewShapeQueries {
		before := w.Metrics()
		mo, tr, err := w.QueryTraced(src)
		if err != nil {
			t.Fatal(err)
		}
		if mo.DumpCells() != viewAnswers[i] {
			t.Errorf("query %q: traced answer differs from untraced", src)
		}
		if d := w.Metrics().Sub(before); d.ViewHits != 1 || d.Queries != 0 {
			t.Errorf("query %q: traced run counted %d view hits, %d base evaluations", src, d.ViewHits, d.Queries)
		}
		if len(tr.Stages) != 1 || tr.Stages[0].Name != "views.Answer" || len(tr.Cubes) != 0 || tr.RowsScanned() != 0 {
			t.Errorf("query %q: trace does not report a view hit:\n%s", src, tr)
		}
		if tr.ResultCells != mo.Len() || tr.Query != src || tr.At != w.Now().String() || !tr.Synced {
			t.Errorf("query %q: trace header wrong:\n%s", src, tr)
		}
	}

	w.DisableViews()
	if n, bytes := w.ViewStats(); n != 0 || bytes != 0 {
		t.Fatalf("views survived DisableViews: count=%d bytes=%d", n, bytes)
	}
	if got := w.Metrics().ViewBytes; got != 0 {
		t.Fatalf("ViewBytes = %d after DisableViews", got)
	}
	for i, src := range viewShapeQueries {
		mo, err := w.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if mo.DumpCells() != viewAnswers[i] {
			t.Errorf("query %q: view answer differs from base path:\nview:\n%s\nbase:\n%s",
				src, viewAnswers[i], mo.DumpCells())
		}
	}
}

// TestViewBuildIsNotAQuery pins that materializing views — on enable, on
// refresh and on a sync-carrying commit, through both the unsynchronized
// and the synchronized evaluation path — moves ViewBuilds and none of the
// user-query counters.
func TestViewBuildIsNotAQuery(t *testing.T) {
	w, obj := openClickWarehouse(t)
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(start); err != nil {
		t.Fatal(err)
	}
	loadStream(t, w, obj, workload.ClickConfig{Seed: 12, Start: start - 60, Days: 60, ClicksPerDay: 20, Domains: 4, URLsPerDomain: 3})
	for _, src := range viewShapeQueries {
		if _, err := w.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	// A clock-only advance leaves the cubes synchronized at an earlier
	// day, so the first two builds take the unsynchronized path.
	if err := w.AdvanceTo(start + 1); err != nil {
		t.Fatal(err)
	}
	if last, _ := w.Cubes().LastSync(); last == w.Now() {
		t.Fatal("advance synchronized; the unsynchronized build path is not exercised")
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"EnableViews", func() error { return w.EnableViews(views.Config{}) }},
		{"RefreshViews", w.RefreshViews},
		{"Sync", w.Sync},
	}
	for _, step := range steps {
		before := w.Metrics()
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		after := w.Metrics()
		d := after.Sub(before)
		if d.ViewBuilds == 0 {
			t.Errorf("%s built no view", step.name)
		}
		if d.Queries != 0 || after.QueryDuration.Count != before.QueryDuration.Count ||
			d.CubesConsulted != 0 || d.CubesPruned != 0 || d.RowsScanned != 0 || d.RowsSelected != 0 {
			t.Errorf("%s counted its view build as a query: queries=%d latency n=%d cubes consulted=%d pruned=%d rows scanned=%d selected=%d",
				step.name, d.Queries, after.QueryDuration.Count-before.QueryDuration.Count,
				d.CubesConsulted, d.CubesPruned, d.RowsScanned, d.RowsSelected)
		}
	}
}

// TestViewBuiltOnStaleCubesAnswersAtTheClock: views refreshed after a
// clock-only advance are built at the warehouse clock, not where the
// cubes were last synchronized. March falls due for to-month between
// the two, so a day-level view is no longer a pure fold and must not be
// served; the answer is the base path's.
func TestViewBuiltOnStaleCubesAnswersAtTheClock(t *testing.T) {
	w, obj := openClickWarehouse(t)
	if err := w.AdvanceTo(caltime.Date(2000, 4, 1)); err != nil {
		t.Fatal(err)
	}
	loadStream(t, w, obj, workload.ClickConfig{Seed: 13, Start: caltime.Date(2000, 3, 1), Days: 31, ClicksPerDay: 10, Domains: 3, URLsPerDomain: 2})
	src := `aggregate [Time.day, URL.domain]`
	if _, err := w.Query(src); err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(caltime.Date(2000, 5, 15)); err != nil {
		t.Fatal(err)
	}
	if last, _ := w.Cubes().LastSync(); last == w.Now() {
		t.Fatal("advance synchronized; the stale build is not exercised")
	}
	if err := w.EnableViews(views.Config{}); err != nil {
		t.Fatal(err)
	}
	got, err := w.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	w.DisableViews()
	want, err := w.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if got.DumpCells() != want.DumpCells() {
		t.Errorf("views on answered\n%s\nbase path at %s\n%s", got.DumpCells(), w.Now(), want.DumpCells())
	}
}

func TestViewsInvalidatedByMutationAndClock(t *testing.T) {
	w, obj := openViewWarehouse(t)
	src := viewShapeQueries[0]

	assertServed := func(want bool, when string) {
		t.Helper()
		before := w.Metrics()
		if _, err := w.Query(src); err != nil {
			t.Fatal(err)
		}
		d := w.Metrics().Sub(before)
		if want && d.ViewHits != 1 {
			t.Fatalf("%s: not view-served (hits=%d misses=%d)", when, d.ViewHits, d.ViewMisses)
		}
		if !want && d.ViewHits != 0 {
			t.Fatalf("%s: unexpectedly view-served", when)
		}
	}
	assertServed(true, "after enable")

	// A single-fact load invalidates: the published snapshot carries no
	// views until the next sync-carrying commit rebuilds them.
	c := workload.Click{Day: w.Now(), URL: "http://www.site0.com/page/0", Dwell: 5, Delivery: 1, SizeKB: 10}
	refs, meas, err := obj.Row(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Load(refs, meas); err != nil {
		t.Fatal(err)
	}
	if n, _ := w.ViewStats(); n != 0 {
		t.Fatalf("%d views survived a mutating commit", n)
	}
	assertServed(false, "after load")
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	assertServed(true, "after sync rebuild")

	// A clock-only advance carries the views but their build clock no
	// longer matches NOW: stale views are skipped, not served...
	oldNow := w.Now()
	if err := w.AdvanceTo(oldNow + 1); err != nil {
		t.Fatal(err)
	}
	if w.Now() != oldNow+1 {
		t.Skip("advance crossed a sync boundary; clock-only staleness not exercised")
	}
	if n, _ := w.ViewStats(); n == 0 {
		t.Fatal("clock-only advance dropped the views")
	}
	assertServed(false, "after clock-only advance")
	// ...but an explicit query back at their build clock may use them:
	// the cubes are untouched, so they are exact there.
	q := subcube.MustParseQuery(src, w.Env())
	before := w.Metrics()
	if _, err := w.QueryAt(q, oldNow); err != nil {
		t.Fatal(err)
	}
	if d := w.Metrics().Sub(before); d.ViewHits != 1 {
		t.Fatalf("QueryAt(build clock) not view-served (hits=%d misses=%d)", d.ViewHits, d.ViewMisses)
	}

	// A specification update bumps the generation and invalidates.
	if err := w.RefreshViews(); err != nil {
		t.Fatal(err)
	}
	assertServed(true, "after refresh at new clock")
	env := w.Env()
	a3 := spec.MustCompileString("to-year",
		`aggregate [Time.year, URL.domain_grp] where Time.year <= NOW - 2 years`, env)
	if err := w.InsertActions(a3); err != nil {
		t.Fatal(err)
	}
	if n, _ := w.ViewStats(); n != 0 {
		t.Fatalf("%d views survived a spec update", n)
	}
	assertServed(false, "after spec update")
}

func TestViewServingAllApproachesFallBack(t *testing.T) {
	// Non-availability aggregation is never view-served: it falls back to
	// the base path and is not even counted as view traffic. A predicate
	// the serving view decides is served, and answers as the base path.
	w, _ := openViewWarehouse(t)
	env := w.Env()
	q := subcube.MustParseQuery(viewShapeQueries[1], env)
	before := w.Metrics()
	for _, agg := range []query.AggApproach{query.Strict, query.LUB, query.Disaggregated} {
		qa := q
		qa.Agg = agg
		if _, err := w.QueryAt(qa, w.Now()); err != nil {
			t.Fatal(err)
		}
	}
	d := w.Metrics().Sub(before)
	if d.ViewHits != 0 || d.ViewMisses != 0 {
		t.Fatalf("ineligible queries touched view counters: hits=%d misses=%d", d.ViewHits, d.ViewMisses)
	}
	if d.Queries != 3 {
		t.Fatalf("base path ran %d evaluations, want 3", d.Queries)
	}
	pq := subcube.MustParseQuery(
		`aggregate [Time.quarter, URL.domain] where URL.domain_grp = ".com"`, env)
	before = w.Metrics()
	served, err := w.QueryAt(pq, w.Now())
	if err != nil {
		t.Fatal(err)
	}
	if d := w.Metrics().Sub(before); d.ViewHits != 1 || d.ViewFolds != 0 || d.ViewMisses != 0 || d.Queries != 0 {
		t.Fatalf("a predicate the quarter × domain view decides: hits=%d folds=%d misses=%d evaluations=%d, want one exact hit",
			d.ViewHits, d.ViewFolds, d.ViewMisses, d.Queries)
	}
	base, err := w.Cubes().Evaluate(pq, w.Now())
	if err != nil {
		t.Fatal(err)
	}
	if served.DumpCells() != base.DumpCells() {
		t.Fatalf("the served predicated answer\n%s\nthe base path\n%s", served.DumpCells(), base.DumpCells())
	}
}

// TestPredicatedViewHit: a predicated read the serving view decides is
// answered from it — exactly, filtered, or filtered and folded — with no
// cube-set evaluation and no shape recorded, and counts one view hit
// (and one fold when folded); a traced hit names its view and one
// views.Answer stage. A predicate no view decides takes the base path and
// counts nothing, hit or miss. Every answer equals the views-off one.
func TestPredicatedViewHit(t *testing.T) {
	w, _ := openViewWarehouse(t)
	for _, tc := range []struct {
		src           string
		served, exact bool
	}{
		{`aggregate [Time.month, URL.domain] where URL.domain_grp = ".com"`, true, true},
		{`aggregate [Time.year, URL.domain] where Time.quarter <= NOW - 1 quarters`, true, false},
		{`aggregate [Time.month, URL.domain] where Time.day <= 2000/2/15`, false, false},
	} {
		shapes := w.shapes.Counts()
		before := w.Metrics()
		mo, tr, err := w.QueryTraced(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		d := w.Metrics().Sub(before)
		if got := w.shapes.Counts(); !maps.Equal(got, shapes) {
			t.Errorf("%q recorded a shape: %v, was %v", tc.src, got, shapes)
		}
		if d.ViewMisses != 0 {
			t.Errorf("%q counted %d view misses", tc.src, d.ViewMisses)
		}
		if !tc.served {
			if d.ViewHits != 0 || d.Queries != 1 || tr.View != "" {
				t.Errorf("%q: hits=%d evaluations=%d view %q, want the base path", tc.src, d.ViewHits, d.Queries, tr.View)
			}
		} else {
			folds := int64(0)
			if !tc.exact {
				folds = 1
			}
			if d.ViewHits != 1 || d.ViewFolds != folds || d.Queries != 0 {
				t.Errorf("%q: hits=%d folds=%d evaluations=%d, want a hit with %d folds and no evaluation", tc.src, d.ViewHits, d.ViewFolds, d.Queries, folds)
			}
			if tr.View == "" || tr.ViewStored != tc.exact || len(tr.Stages) != 1 || tr.Stages[0].Name != "views.Answer" || len(tr.Cubes) != 0 {
				t.Errorf("%q: trace does not report a view hit:\n%s", tc.src, tr)
			}
			how := "folded to the target"
			if tc.exact {
				how = "served at the target granularity"
			}
			if line := "view " + tr.View + " " + how + "\n"; !strings.Contains(tr.String(), line) {
				t.Errorf("%q: the rendered trace lacks %q:\n%s", tc.src, line, tr)
			}
		}
		base, err := w.Cubes().Evaluate(subcube.MustParseQuery(tc.src, w.Env()), w.Now())
		if err != nil {
			t.Fatal(err)
		}
		if mo.DumpCells() != base.DumpCells() {
			t.Errorf("%q: answered\n%s\nthe base path\n%s", tc.src, mo.DumpCells(), base.DumpCells())
		}
	}
}

// TestPredicatedReadSkipsAnUndecidingView: of a two-view set, the
// smallest view that rolls up to a predicated read's target does not
// decide its predicate, and a larger one does. The larger view serves the
// read, folded to the target, as one view hit with no shape recorded, and
// the answer equals the base path's.
func TestPredicatedReadSkipsAnUndecidingView(t *testing.T) {
	w, obj := openClickWarehouse(t)
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(start); err != nil {
		t.Fatal(err)
	}
	loadStream(t, w, obj, workload.ClickConfig{Seed: 11, Start: start, Days: 120, ClicksPerDay: 40, Domains: 6, URLsPerDomain: 4})
	for _, src := range []string{`aggregate [Time.quarter, URL.domain_grp]`, `aggregate [Time.month, URL.domain]`} {
		if _, err := w.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.EnableViews(views.Config{}); err != nil {
		t.Fatal(err)
	}
	const src = `aggregate [Time.year, URL.domain_grp] where Time.month <= 2000/2`
	q := subcube.MustParseQuery(src, w.Env())
	set := w.cur.Load().views.Views()
	if len(set) != 2 || q.Pred.DecidedAt(set[0].Gran()) || !q.Pred.DecidedAt(set[1].Gran()) {
		t.Fatalf("want two views, the smaller not deciding %q and the larger deciding it; have %d", src, len(set))
	}
	shapes := w.shapes.Counts()
	before := w.Metrics()
	mo, tr, err := w.QueryTraced(src)
	if err != nil {
		t.Fatal(err)
	}
	d := w.Metrics().Sub(before)
	if d.ViewHits != 1 || d.ViewFolds != 1 || d.ViewMisses != 0 || d.Queries != 0 || tr.View != set[1].Key() {
		t.Errorf("hits=%d folds=%d misses=%d evaluations=%d view %q; want one folded hit from %q", d.ViewHits, d.ViewFolds, d.ViewMisses, d.Queries, tr.View, set[1].Key())
	}
	if got := w.shapes.Counts(); !maps.Equal(got, shapes) {
		t.Errorf("recorded a shape: %v, was %v", got, shapes)
	}
	base, err := w.Cubes().Evaluate(q, w.Now())
	if err != nil {
		t.Fatal(err)
	}
	if mo.Len() == 0 || mo.DumpCells() != base.DumpCells() {
		t.Errorf("answered\n%s\nthe base path\n%s", mo.DumpCells(), base.DumpCells())
	}
}

// TestAnswerFloorsAreCallerOwned: an answer's floors are the caller's to
// write. An exact hit borrows a published view, whose floors are the
// view's granularity: were a write into them to land, the view would pass
// for one at the written granularity and serve its cells as an exact hit
// there. A base-path answer's floors are the query's target: a write
// into them must reach neither the caller's QueryAt query nor the plan
// Query keeps for the text.
func TestAnswerFloorsAreCallerOwned(t *testing.T) {
	w, obj := openClickWarehouse(t)
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(start); err != nil {
		t.Fatal(err)
	}
	loadStream(t, w, obj, workload.ClickConfig{Seed: 5, Start: start, Days: 120, ClicksPerDay: 10, Domains: 5, URLsPerDomain: 2})
	const month, quarter = `aggregate [Time.month, URL.domain]`, `aggregate [Time.quarter, URL.domain]`
	if _, err := w.Query(month); err != nil { // the one shape the selector learns
		t.Fatal(err)
	}
	if err := w.EnableViews(views.Config{}); err != nil {
		t.Fatal(err)
	}
	qcat, ok := obj.Time.CategoryByName("quarter")
	if !ok {
		t.Fatal("no quarter category")
	}
	ask := func(src string) *mdm.MO {
		t.Helper()
		mo, err := w.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		return mo
	}
	want := ask(quarter).DumpCells()
	before := w.Metrics()
	ask(month).Floors()[0] = qcat
	if d := w.Metrics().Sub(before); d.ViewHits != 1 || d.ViewFolds != 0 {
		t.Fatalf("hits=%d folds=%d, want the month shape an exact hit", d.ViewHits, d.ViewFolds)
	}
	before = w.Metrics()
	if got := ask(quarter).DumpCells(); got != want {
		t.Errorf("after a write into an exact hit's floors, the quarter shape answers\n%s\nwant\n%s", got, want)
	}
	if d := w.Metrics().Sub(before); d.ViewHits-d.ViewFolds != 0 {
		t.Errorf("the quarter shape was an exact hit on the month view")
	}

	const src = `aggregate [Time.month, URL.domain] where Time.month <= 2000/2`
	q := subcube.MustParseQuery(src, w.Env())
	target := append(mdm.Granularity(nil), q.Target...)
	mo, err := w.QueryAt(q, w.Now())
	if err != nil {
		t.Fatal(err)
	}
	mo.Floors()[0] = qcat
	if !w.Env().Schema.GranEq(q.Target, target) {
		t.Errorf("a write into a QueryAt answer's floors moved the query's target to %v", q.Target)
	}
	want = ask(src).DumpCells()
	ask(src).Floors()[0] = qcat
	if got := ask(src).DumpCells(); got != want {
		t.Errorf("after a write into an answer's floors, the same text answers\n%s\nwant\n%s", got, want)
	}
}
