package dimred_test

// One benchmark per experiment of DESIGN.md section 5, plus
// micro-benchmarks for the pieces the paper's implementation section
// cares about (specification checking, synchronization, parallel
// querying). Run with:
//
//	go test -bench=. -benchmem
import (
	"fmt"
	"testing"

	"dimred/internal/baseline"
	"dimred/internal/caltime"
	"dimred/internal/core"
	"dimred/internal/dims"
	"dimred/internal/expr"
	"dimred/internal/mdm"
	"dimred/internal/obs"
	"dimred/internal/query"
	"dimred/internal/relstore"
	"dimred/internal/spec"
	"dimred/internal/storage"
	"dimred/internal/subcube"
	"dimred/internal/views"
	"dimred/internal/warehouse"
	"dimred/internal/workload"
)

const (
	benchA1 = `aggregate [Time.month, URL.domain] where URL.domain_grp = ".com" and NOW - 12 months < Time.month and Time.month <= NOW - 6 months`
	benchA2 = `aggregate [Time.quarter, URL.domain] where URL.domain_grp = ".com" and Time.quarter <= NOW - 4 quarters`
)

func benchPaperSpec(b *testing.B) (*dims.PaperObject, *spec.Spec) {
	b.Helper()
	p := dims.MustPaperMO()
	env, err := spec.NewEnv(p.Schema, "Time", p.Time)
	if err != nil {
		b.Fatal(err)
	}
	s, err := spec.New(env,
		spec.MustCompileString("a1", benchA1, env),
		spec.MustCompileString("a2", benchA2, env))
	if err != nil {
		b.Fatal(err)
	}
	return p, s
}

func benchDay(b *testing.B, s string) caltime.Day {
	b.Helper()
	d, err := caltime.ParseDay(s)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// benchClicks generates a click-stream MO once per benchmark.
func benchClicks(b *testing.B, days, perDay int) (*workload.ClickObject, *spec.Env) {
	b.Helper()
	obj, err := workload.BuildClickMO(workload.ClickConfig{
		Seed: 1, Start: caltime.Date(2000, 1, 1), Days: days,
		ClicksPerDay: perDay, Domains: 30, URLsPerDomain: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		b.Fatal(err)
	}
	return obj, env
}

func benchClickSpec(b *testing.B, env *spec.Env) *spec.Spec {
	b.Helper()
	s, err := spec.New(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env),
		spec.MustCompileString("q", `aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`, env))
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// --- E-series: the paper's artifacts as benchmarks ---

func BenchmarkE01_BuildPaperMO(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dims.PaperMO(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE01_BuildStarSchema(b *testing.B) {
	p := dims.MustPaperMO()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relstore.BuildStar(p.MO); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE02_CompileAction(b *testing.B) {
	p := dims.MustPaperMO()
	env, _ := spec.NewEnv(p.Schema, "Time", p.Time)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.CompileString("a1", benchA1, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE03_CellFunction(b *testing.B) {
	p, s := benchPaperSpec(b)
	at := benchDay(b, "2000/11/5")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := core.Cell(s, p.MO, p.Facts[1], at); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE04_NonCrossingCheck(b *testing.B) {
	p := dims.MustPaperMO()
	env, _ := spec.NewEnv(p.Schema, "Time", p.Time)
	a2 := spec.MustCompileString("a2", benchA2, env)
	c3 := spec.MustCompileString("c3",
		`aggregate [Time.month, URL.domain_grp] where URL.domain_grp = ".com" and Time.month <= 1999/12`, env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := spec.CheckNonCrossing(env, []*spec.Action{a2, c3}); err == nil {
			b.Fatal("crossing not detected")
		}
	}
}

func BenchmarkE05_GrowingCheck(b *testing.B) {
	p := dims.MustPaperMO()
	env, _ := spec.NewEnv(p.Schema, "Time", p.Time)
	a1 := spec.MustCompileString("a1", benchA1, env)
	a2 := spec.MustCompileString("a2", benchA2, env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := spec.CheckGrowing(env, []*spec.Action{a1, a2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE06_ReducePaperMO(b *testing.B) {
	p, s := benchPaperSpec(b)
	at := benchDay(b, "2000/11/5")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Reduce(s, p.MO, at); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE07_ConservativeSelection(b *testing.B) {
	p, s := benchPaperSpec(b)
	at := benchDay(b, "2000/11/5")
	res, err := core.Reduce(s, p.MO, at)
	if err != nil {
		b.Fatal(err)
	}
	pred, err := query.ParsePred(`Time.week <= 1999W48`, s.Env())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.Select(res.MO, pred, at, query.Conservative); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE09_AggregateFormation(b *testing.B) {
	p, s := benchPaperSpec(b)
	at := benchDay(b, "2000/11/5")
	res, err := core.Reduce(s, p.MO, at)
	if err != nil {
		b.Fatal(err)
	}
	g, err := s.Env().Schema.ParseGranularity([]string{"Time.month", "URL.domain"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.Aggregate(res.MO, g, query.Availability); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE13_Sync(b *testing.B) {
	obj, env := benchClicks(b, 180, 100)
	s := benchClickSpec(b, env)
	at := caltime.Date(2000, 9, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cs, err := subcube.New(s)
		if err != nil {
			b.Fatal(err)
		}
		if err := cs.InsertMO(obj.MO); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := cs.Sync(at); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE16_ParseAction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := expr.ParseAction(benchA1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- S-series: the paper's quantitative claims ---

func BenchmarkS1_FactShare(b *testing.B) {
	obj, _ := benchClicks(b, 365, 100)
	b.ResetTimer()
	var share float64
	for i := 0; i < b.N; i++ {
		factBytes := storage.MOBytes(obj.MO)
		var dimBytes int64
		for _, d := range obj.Schema.Dims {
			dimBytes += storage.DimensionBytes(d)
		}
		share = float64(factBytes) / float64(factBytes+dimBytes)
	}
	b.ReportMetric(100*share, "fact-share-%")
}

func BenchmarkS2_StorageGain(b *testing.B) {
	obj, env := benchClicks(b, 365, 100)
	s := benchClickSpec(b, env)
	at := caltime.Date(2001, 8, 1)
	b.ResetTimer()
	var savings float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		red, err := baseline.NewSpecReduction(s)
		if err != nil {
			b.Fatal(err)
		}
		for f := 0; f < obj.MO.Len(); f++ {
			fid := mdm.FactID(f)
			if err := red.Load(obj.MO.Refs(fid), obj.MO.Measures(fid)); err != nil {
				b.Fatal(err)
			}
		}
		unreduced := int64(obj.MO.Len()) * storage.Layout{DimCols: 2, MeasCols: 4}.RowBytes()
		b.StartTimer()
		if err := red.Advance(at); err != nil {
			b.Fatal(err)
		}
		savings = 100 * (1 - float64(red.Bytes())/float64(unreduced))
	}
	b.ReportMetric(savings, "savings-%")
}

// BenchmarkS3_ParallelQuery measures subcube query latency as cube
// counts grow; sub-queries run in parallel goroutines.
func BenchmarkS3_ParallelQuery(b *testing.B) {
	for _, nActions := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("cubes=%d", nActions+1), func(b *testing.B) {
			obj, env := benchClicks(b, 365, 100)
			srcs := []string{
				`aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`,
				`aggregate [Time.quarter, URL.domain] where Time.quarter <= NOW - 2 quarters`,
				`aggregate [Time.year, URL.domain_grp] where Time.year <= NOW - 1 year`,
				`aggregate [Time.year, URL.TOP] where Time.year <= NOW - 2 years`,
			}
			var actions []*spec.Action
			for i := 0; i < nActions; i++ {
				actions = append(actions, spec.MustCompileString(fmt.Sprintf("a%d", i), srcs[i], env))
			}
			s, err := spec.New(env, actions...)
			if err != nil {
				b.Fatal(err)
			}
			cs, err := subcube.New(s)
			if err != nil {
				b.Fatal(err)
			}
			if err := cs.InsertMO(obj.MO); err != nil {
				b.Fatal(err)
			}
			at := caltime.Date(2001, 2, 1)
			if _, err := cs.Sync(at); err != nil {
				b.Fatal(err)
			}
			q, err := subcube.ParseQuery(`aggregate [Time.quarter, URL.domain_grp]`, env)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cs.Evaluate(q, at); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdhocQuery measures the base read path on a synchronized
// three-cube set with no views: a predicate whose verdicts repeat per
// dimension value, a target above and beside the stored granularities,
// and a fine target that two cubes answer and the combine merges by cell.
func BenchmarkAdhocQuery(b *testing.B) {
	obj, env := benchClicks(b, 540, 40)
	cs, err := subcube.New(benchClickSpec(b, env))
	if err != nil {
		b.Fatal(err)
	}
	if err := cs.InsertMO(obj.MO); err != nil {
		b.Fatal(err)
	}
	at := caltime.Date(2001, 6, 24)
	if _, err := cs.Sync(at); err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct{ name, src string }{
		{"finer_pred", `aggregate [Time.month, URL.domain_grp] where Time.day <= 2001/2/15`},
		{"week_target", `aggregate [Time.week, URL.domain_grp]`},
		{"fine_target", `aggregate [Time.day, URL.domain] where 2001/3/1 <= Time.day`},
	} {
		b.Run(tc.name, func(b *testing.B) {
			q, err := subcube.ParseQuery(tc.src, env)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cs.Evaluate(q, at); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkViewAnswer measures both branches of views.Answer on a view
// set the size of the repo benchmark's dashboard_read: a target a view is
// materialized at, which is returned as stored, and a target above the
// only view that reaches it, which query.Aggregate folds (the per-cell
// cost the ancestor branch still pays).
func BenchmarkViewAnswer(b *testing.B) {
	obj, err := workload.BuildClickMO(workload.ClickConfig{
		Seed: 2, Start: caltime.Date(2000, 1, 1), Days: 270,
		ClicksPerDay: 300, Domains: 100, URLsPerDomain: 20, ZipfS: 1.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := spec.New(env)
	if err != nil {
		b.Fatal(err)
	}
	cs, err := subcube.New(sp)
	if err != nil {
		b.Fatal(err)
	}
	if err := cs.InsertMO(obj.MO); err != nil {
		b.Fatal(err)
	}
	at := caltime.Date(2000, 9, 27)
	if _, err := cs.Sync(at); err != nil {
		b.Fatal(err)
	}
	gran := func(refs ...string) mdm.Granularity {
		g, err := env.Schema.ParseGranularity(refs)
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	monthDomain, quarterGroup := gran("Time.month", "URL.domain"), gran("Time.quarter", "URL.domain_grp")
	set := views.Build(env, cs, []views.Candidate{
		{Key: spec.EncodeGran(monthDomain), Gran: monthDomain},
		{Key: spec.EncodeGran(quarterGroup), Gran: quarterGroup},
	}, at, views.Config{}, obs.NewMetrics())
	for _, tc := range []struct {
		name         string
		target       mdm.Granularity
		exact        bool
		rows, result int
	}{
		{"exact/887cells", monthDomain, true, 887, 887},
		{"exact/9cells", quarterGroup, true, 9, 9},
		{"ancestor/887→27cells", gran("Time.month", "URL.domain_grp"), false, 887, 27},
	} {
		b.Run(tc.name, func(b *testing.B) {
			q := subcube.Query{Target: tc.target, Sel: query.Conservative, Agg: query.Availability}
			v, exact := set.Serving(env.Schema, tc.target)
			if v == nil || exact != tc.exact || v.Rows() != tc.rows {
				b.Fatalf("the fixture no longer serves this case as named: view %v, exact %v", v, exact)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mo, ok := set.Answer(env.Schema, q, at, sp.Generation())
				if !ok || mo.Len() != tc.result {
					b.Fatalf("served %v, %d cells", ok, mo.Len())
				}
			}
		})
	}
}

func BenchmarkS4_BulkLoadAndSync(b *testing.B) {
	obj, env := benchClicks(b, 180, 200)
	s := benchClickSpec(b, env)
	rows := make([][]mdm.ValueID, obj.MO.Len())
	meas := make([][]float64, obj.MO.Len())
	for f := 0; f < obj.MO.Len(); f++ {
		rows[f] = obj.MO.Refs(mdm.FactID(f))
		meas[f] = obj.MO.Measures(mdm.FactID(f))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := subcube.New(s)
		if err != nil {
			b.Fatal(err)
		}
		for f := range rows {
			if err := cs.Insert(rows[f], meas[f]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := cs.Sync(caltime.Date(2000, 10, 1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "facts/op")
}

// BenchmarkBulkLoadFold is the paper's bulk-load discipline at the
// warehouse: LoadBatch of a generated click stream on its first day,
// then the AdvanceTo that folds it. Each of the two commits moves more
// rows than it leaves, so each is applied once and the other side
// cloned (reclones/op) — the arm of the commit protocol the small
// commits of every other benchmark never take.
func BenchmarkBulkLoadFold(b *testing.B) {
	obj, env := benchClicks(b, 180, 200)
	actions := benchClickSpec(b, env).Actions()
	var reclones int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := warehouse.Open(env, actions...)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.AdvanceTo(caltime.Date(2000, 1, 1)); err != nil {
			b.Fatal(err)
		}
		err = w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
			for f := 0; f < obj.MO.Len(); f++ {
				if err := load(obj.MO.Refs(mdm.FactID(f)), obj.MO.Measures(mdm.FactID(f))); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.AdvanceTo(caltime.Date(2000, 10, 1)); err != nil {
			b.Fatal(err)
		}
		reclones += w.Metrics().SnapshotReclones
	}
	b.ReportMetric(float64(obj.MO.Len()), "facts/op")
	b.ReportMetric(float64(reclones)/float64(b.N), "reclones/op")
}

// --- P-series: compiled specexec programs vs interpreted evaluation ---

// benchSync runs one synchronization round over the 180×100 click
// workload on either evaluation path; setup (layout + bulk insert) is
// excluded from the timer.
func benchSync(b *testing.B, interpreted bool) {
	obj, env := benchClicks(b, 180, 100)
	s := benchClickSpec(b, env)
	at := caltime.Date(2000, 9, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cs, err := subcube.New(s)
		if err != nil {
			b.Fatal(err)
		}
		cs.SetInterpreted(interpreted)
		if err := cs.InsertMO(obj.MO); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := cs.Sync(at); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(obj.MO.Len()), "rows/op")
}

func BenchmarkSyncInterpreted(b *testing.B) { benchSync(b, true) }
func BenchmarkSyncCompiled(b *testing.B)    { benchSync(b, false) }

// benchReduce runs the Definition 2 reduction over the 120×50 click
// workload on either evaluation path.
func benchReduce(b *testing.B, interpreted bool) {
	obj, env := benchClicks(b, 120, 50)
	s := benchClickSpec(b, env)
	at := caltime.Date(2000, 9, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if interpreted {
			_, err = core.ReduceInterpreted(s, obj.MO, at)
		} else {
			_, err = core.Reduce(s, obj.MO, at)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(obj.MO.Len()), "rows/op")
}

func BenchmarkReduceInterpreted(b *testing.B) { benchReduce(b, true) }
func BenchmarkReduceCompiled(b *testing.B)    { benchReduce(b, false) }

// BenchmarkS5_ReduceVsIncremental compares the functional Definition 2
// reduction against incremental subcube synchronization on the same
// stream.
func BenchmarkS5_ReduceVsIncremental(b *testing.B) {
	obj, env := benchClicks(b, 120, 50)
	s := benchClickSpec(b, env)
	at := caltime.Date(2000, 9, 1)
	b.Run("definition2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Reduce(s, obj.MO, at); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("subcubes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cs, err := subcube.New(s)
			if err != nil {
				b.Fatal(err)
			}
			if err := cs.InsertMO(obj.MO); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := cs.Sync(at); err != nil {
				b.Fatal(err)
			}
		}
	})
}
