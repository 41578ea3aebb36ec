package views

import (
	"sync"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/obs"
	"dimred/internal/query"
	"dimred/internal/spec"
	"dimred/internal/subcube"
	"dimred/internal/workload"
)

// clickCubes loads a generated click stream into a cube set whose schema
// carries one measure of every aggregate kind — COUNT reads base counts,
// so a stored answer and a folded one can only agree on it by
// construction — under the given actions, synchronized the day after the
// stream ends.
func clickCubes(t *testing.T, cfg workload.ClickConfig, actions ...string) (*spec.Env, *subcube.CubeSet, caltime.Day) {
	t.Helper()
	obj, err := workload.BuildClickMO(cfg)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := mdm.NewSchema("Click", obj.Schema.Dims, []mdm.Measure{
		{Name: "dwell", Agg: mdm.AggSum},
		{Name: "n", Agg: mdm.AggCount},
		{Name: "fastest", Agg: mdm.AggMin},
		{Name: "largest", Agg: mdm.AggMax},
	})
	if err != nil {
		t.Fatal(err)
	}
	at := cfg.Start + caltime.Day(cfg.Days)
	obj.Time.EnsureDay(at)
	env, err := spec.NewEnv(schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	compiled := make([]*spec.Action, len(actions))
	for i, src := range actions {
		compiled[i] = spec.MustCompileString(string(rune('a'+i)), src, env)
	}
	sp, err := spec.New(env, compiled...)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := subcube.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < obj.MO.Len(); f++ {
		fid := mdm.FactID(f)
		m := obj.MO.Measures(fid)
		if err := cs.Insert(obj.MO.Refs(fid), []float64{m[1], 0, m[2], m[3]}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cs.Sync(at); err != nil {
		t.Fatal(err)
	}
	return env, cs, at
}

func queryAt(target mdm.Granularity) subcube.Query {
	return subcube.Query{Target: target, Sel: query.Conservative, Agg: query.Availability}
}

// foldOf is what Answer returned for every hit before exact hits were
// served as stored: the view aggregated to the target.
func foldOf(t *testing.T, v *View, target mdm.Granularity) *mdm.MO {
	t.Helper()
	mo, err := query.Aggregate(v.MO(), target, query.Availability)
	if err != nil {
		t.Fatal(err)
	}
	return mo
}

// sameAnswer holds got against want in everything an answer carries:
// names, cells and measures (Dump), base counts (DumpCells), floors, and
// the fact order both dumps sort away.
func sameAnswer(t *testing.T, env *spec.Env, what string, got, want *mdm.MO) {
	t.Helper()
	if got.Dump() != want.Dump() || got.DumpCells() != want.DumpCells() {
		t.Errorf("%s:\ngot:\n%s\nwant:\n%s", what, got.Dump(), want.Dump())
	}
	if !env.Schema.GranEq(got.Floors(), want.Floors()) {
		t.Errorf("%s: floors %s, want %s", what, env.Schema.GranString(got.Floors()), env.Schema.GranString(want.Floors()))
	}
	for f := 0; f < min(got.Len(), want.Len()); f++ {
		if fid := mdm.FactID(f); got.Name(fid) != want.Name(fid) || got.CellString(fid) != want.CellString(fid) {
			t.Errorf("%s: fact %d is %s at %s, want %s at %s", what, f,
				got.Name(fid), got.CellString(fid), want.Name(fid), want.CellString(fid))
			break
		}
	}
}

// TestExactHitEqualsFold: a query at a view's own granularity gets the
// view as stored, and that is byte for byte what folding the view onto
// itself gave; a target strictly above every view still folds the
// smallest one that reaches it; and the exact view wins over a finer one
// with as many rows that sorts before it.
func TestExactHitEqualsFold(t *testing.T) {
	cfg := workload.ClickConfig{
		Seed: 5, Start: caltime.Date(2000, 1, 1), Days: 400,
		ClicksPerDay: 3, Domains: 6, URLsPerDomain: 2,
	}
	env, cs, at := clickCubes(t, cfg, `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`)
	gen := cs.Spec().Generation()
	set := Build(env, cs, []Candidate{
		candOf(t, env, "Time.month", "URL.domain"),
		candOf(t, env, "Time.quarter", "URL.domain"),
		candOf(t, env, "Time.quarter", "URL.domain_grp"),
		candOf(t, env, "Time.year", "URL.domain_grp"),
		candOf(t, env, "Time.year", "URL.TOP"),
	}, at, Config{}, obs.NewMetrics())
	if set.Len() != 5 {
		t.Fatalf("built %d views, want 5", set.Len())
	}
	for _, v := range set.Views() {
		what := "exact hit at " + env.Schema.GranString(v.Gran())
		served, ok := set.Answer(env.Schema, queryAt(v.Gran()), at, gen)
		if !ok {
			t.Fatalf("%s: not served", what)
		}
		if served == v.MO() {
			t.Fatalf("%s: the answer is the view's own MO, not a copy", what)
		}
		if sv, exact := set.Serving(env.Schema, v.Gran(), nil); sv != v || !exact {
			t.Errorf("%s: Serving = view %s, exact %v", what, sv.Key(), exact)
		}
		sameAnswer(t, env, what, served, foldOf(t, v, v.Gran()))
	}

	// Strictly above every view: the smallest ancestor, folded.
	for _, target := range []mdm.Granularity{
		granOf(t, env, "Time.TOP", "URL.domain"),
		granOf(t, env, "Time.TOP", "URL.TOP"),
	} {
		what := "ancestor hit at " + env.Schema.GranString(target)
		var smallest *View
		for _, v := range set.Views() {
			if spec.RollupReachableSchema(env.Schema, v.Gran(), target) {
				smallest = v
				break
			}
		}
		if sv, exact := set.Serving(env.Schema, target, nil); sv != smallest || exact {
			t.Fatalf("%s: Serving = view %s, exact %v, want the smallest ancestor %s, folded", what, sv.Key(), exact, smallest.Key())
		}
		served, ok := set.Answer(env.Schema, queryAt(target), at, gen)
		if !ok {
			t.Fatalf("%s: not served", what)
		}
		sameAnswer(t, env, what, served, foldOf(t, smallest, target))
	}

	// An empty view is an answer too.
	empty, err := subcube.New(cs.Spec().Clone())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Sync(at); err != nil {
		t.Fatal(err)
	}
	month := candOf(t, env, "Time.month", "URL.domain")
	setE := Build(env, empty, []Candidate{month}, at, Config{}, obs.NewMetrics())
	if setE.Len() != 1 || setE.Views()[0].Rows() != 0 {
		t.Fatalf("built %d views over no facts, want one empty view", setE.Len())
	}
	served, ok := setE.Answer(env.Schema, queryAt(month.Gran), at, gen)
	if !ok {
		t.Fatal("empty view: not served")
	}
	sameAnswer(t, env, "exact hit on an empty view", served, foldOf(t, setE.Views()[0], month.Gran))

	// One quarter of clicks: the quarter view has as many rows as the year
	// view and the smaller shape key, so it sorts first and rolls up to
	// the year target — which the year view holds as stored.
	cfg.Days = 80
	envT, csT, atT := clickCubes(t, cfg)
	quarter, year := candOf(t, envT, "Time.quarter", "URL.domain"), candOf(t, envT, "Time.year", "URL.domain")
	setT := Build(envT, csT, []Candidate{year, quarter}, atT, Config{}, obs.NewMetrics())
	if vs := setT.Views(); setT.Len() != 2 || vs[0].Key() != quarter.Key || vs[0].Rows() != vs[1].Rows() {
		t.Fatalf("the tie case needs the quarter view first among two of equal rows, got %d views", setT.Len())
	}
	if sv, exact := setT.Serving(envT.Schema, year.Gran, nil); !exact || sv.Key() != year.Key {
		t.Errorf("year target served by view %s (exact %v) with the year view %s materialized", sv.Key(), exact, year.Key)
	}
	served, ok = setT.Answer(envT.Schema, queryAt(year.Gran), atT, csT.Spec().Generation())
	if !ok {
		t.Fatal("tie case: not served")
	}
	sameAnswer(t, envT, "exact hit behind a finer view of equal rows", served, foldOf(t, setT.Views()[1], year.Gran))
}

// TestViewAnswerAllocations: an exact hit costs one borrow of the view,
// however many cells it holds — not a copy's columns (eleven
// allocations), let alone a fold's per-cell groups, cells and names.
func TestViewAnswerAllocations(t *testing.T) {
	env, cs, at := clickCubes(t, workload.ClickConfig{
		Seed: 9, Start: caltime.Date(2000, 1, 1), Days: 300,
		ClicksPerDay: 12, Domains: 6, URLsPerDomain: 2,
	})
	day := candOf(t, env, "Time.day", "URL.domain_grp")
	set := Build(env, cs, []Candidate{day}, at, Config{}, obs.NewMetrics())
	if set.Len() != 1 || set.Views()[0].Rows() < 500 {
		t.Fatalf("want one view of at least 500 cells, got %d views", set.Len())
	}
	gen, q := cs.Spec().Generation(), queryAt(day.Gran)
	allocs := testing.AllocsPerRun(20, func() {
		if _, ok := set.Answer(env.Schema, q, at, gen); !ok {
			t.Fatal("not served")
		}
	})
	if allocs > 2 {
		t.Errorf("an exact hit on %d cells made %.0f allocations, want at most 2", set.Views()[0].Rows(), allocs)
	}
}

// TestViewAnswersAreCallerOwned: an exact hit hands out a copy. Readers
// that overwrite everything an answer holds, at once, change neither
// each other's answers nor the view the published set keeps serving.
func TestViewAnswersAreCallerOwned(t *testing.T) {
	env, cs, at := clickCubes(t, workload.ClickConfig{
		Seed: 3, Start: caltime.Date(2000, 1, 1), Days: 200,
		ClicksPerDay: 3, Domains: 6, URLsPerDomain: 2,
	})
	month := candOf(t, env, "Time.month", "URL.domain")
	set := Build(env, cs, []Candidate{month}, at, Config{}, obs.NewMetrics())
	if set.Len() != 1 {
		t.Fatalf("built %d views, want 1", set.Len())
	}
	v := set.Views()[0]
	gen, q := cs.Spec().Generation(), queryAt(month.Gran)
	pristine := foldOf(t, v, month.Gran)
	stored, storedCells := v.MO().Dump(), v.MO().DumpCells()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mo, ok := set.Answer(env.Schema, q, at, gen)
			if !ok || mo.Len() == 0 {
				t.Error("not served")
				return
			}
			for f := 0; f < mo.Len(); f++ {
				fid := mdm.FactID(f)
				for j := range env.Schema.Measures {
					mo.SetMeasure(fid, j, -1)
				}
				mo.SetName(fid, "scribbled")
				mo.AddBaseCount(fid, 1000)
			}
			if _, err := mo.AddFactAt(mo.Refs(0), mo.Measures(0), 7, "appended"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	fresh, ok := set.Answer(env.Schema, q, at, gen)
	if !ok {
		t.Fatal("not served after the scribbling")
	}
	sameAnswer(t, env, "exact hit after eight readers overwrote theirs", fresh, pristine)
	if v.MO().Dump() != stored || v.MO().DumpCells() != storedCells {
		t.Errorf("the view itself changed:\n%s\nwas:\n%s", v.MO().DumpCells(), storedCells)
	}
}
