package dimred_test

// Micro-benchmarks the repo benchmark (bench/) cannot price: the compiled
// and interpreted evaluators side by side on one workload
// (BenchmarkSync*, BenchmarkReduce*, BenchmarkS5_ReduceVsIncremental),
// and the three read and write paths EXPERIMENTS.md cites by name
// (BenchmarkAdhocQuery, BenchmarkViewAnswer, BenchmarkBulkLoadFold). The
// paper's tables, figures and claims are regenerated by cmd/experiments.
// Run with:
//
//	go test -bench=. -benchmem
import (
	"testing"
	"time"

	"dimred/internal/caltime"
	"dimred/internal/core"
	"dimred/internal/mdm"
	"dimred/internal/obs"
	"dimred/internal/query"
	"dimred/internal/spec"
	"dimred/internal/subcube"
	"dimred/internal/views"
	"dimred/internal/warehouse"
	"dimred/internal/workload"
)

// benchClicks generates a click-stream MO over 240 URLs once per
// benchmark.
func benchClicks(b *testing.B, days, perDay int) (*workload.ClickObject, *spec.Env) {
	return benchClicksOver(b, days, perDay, 30, 8)
}

// benchClicksOver is benchClicks over domains × urlsPerDomain URLs.
func benchClicksOver(b *testing.B, days, perDay, domains, urlsPerDomain int) (*workload.ClickObject, *spec.Env) {
	b.Helper()
	obj, err := workload.BuildClickMO(workload.ClickConfig{
		Seed: 1, Start: caltime.Date(2000, 1, 1), Days: days,
		ClicksPerDay: perDay, Domains: domains, URLsPerDomain: urlsPerDomain,
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

// BenchmarkViewAnswer measures the branches of views.Set.Answer on a view
// set the size of the repo benchmark's dashboard_read: a target a view is
// materialized at, which is returned as stored, and a target above the
// only view that reaches it, which query.Aggregate folds (the per-cell
// cost the ancestor branch still pays). Its predicated cases time the
// same query twice, served (view) and through CubeSet.Evaluate (base): an
// exact target with a URL.domain_grp predicate, which the view filters;
// an ancestor target with a Time.month predicate, which it filters and
// folds; and a Time.day predicate no view decides, whose view case is the
// miss the base path then pays for.
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
	monthGroup := gran("Time.month", "URL.domain_grp")
	for _, tc := range []struct {
		name         string
		target       mdm.Granularity
		exact        bool
		rows, result int
	}{
		{"exact/887cells", monthDomain, true, 887, 887},
		{"exact/9cells", quarterGroup, true, 9, 9},
		{"ancestor/887→27cells", monthGroup, false, 887, 27},
	} {
		b.Run(tc.name, func(b *testing.B) {
			q := subcube.Query{Target: tc.target, Sel: query.Conservative, Agg: query.Availability}
			v, exact := set.Serving(env.Schema, tc.target, nil)
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
	for _, tc := range []struct {
		name   string
		target mdm.Granularity
		pred   string
		served bool
	}{
		{"pred-exact/domain_grp", monthDomain, `URL.domain_grp = ".com"`, true},
		{"pred-ancestor/month", monthGroup, `Time.month <= 2000/6`, true},
		{"pred-undecided/day", monthDomain, `Time.day <= 2000/6/15`, false},
	} {
		q := subcube.Query{Pred: query.MustParsePred(tc.pred, env), Target: tc.target, Sel: query.Conservative, Agg: query.Availability}
		base, err := cs.Evaluate(q, at)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/view", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mo, ok := set.Answer(env.Schema, q, at, sp.Generation())
				if ok != tc.served || ok && mo.Len() != base.Len() {
					b.Fatalf("served %v, want %v with %d cells", ok, tc.served, base.Len())
				}
			}
		})
		b.Run(tc.name+"/base", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cs.Evaluate(q, at); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBulkLoadFold is the paper's bulk-load discipline at the
// warehouse: LoadBatch of a generated click stream on its first day,
// then the AdvanceTo that folds it. Each of the two commits moves more
// rows than it leaves, so each is applied once and the other side
// cloned (reclones/op) — the arm of the commit protocol the small
// commits of every other benchmark never take. The small stream fills
// fewer bottom rows than Sync scans as one range; the large one, over
// 9 000 URLs, fills enough (bottom-rows/op) that the fold's scan splits
// into row ranges. load-ms/op and fold-ms/op split the time between the
// two commits.
func BenchmarkBulkLoadFold(b *testing.B) {
	for _, tc := range []struct {
		name                                 string
		days, perDay, domains, urlsPerDomain int
	}{
		{"36k-facts", 180, 200, 30, 8},
		{"360k-facts", 180, 2000, 300, 30},
	} {
		b.Run(tc.name, func(b *testing.B) {
			obj, env := benchClicksOver(b, tc.days, tc.perDay, tc.domains, tc.urlsPerDomain)
			benchBulkLoadFold(b, obj, env, benchClickSpec(b, env).Actions())
		})
	}
}

// benchBulkLoadFold times the load and the fold of obj's facts, read off
// copies made before the timer starts, as the repo benchmark's set-up
// reads its facts: mdm.MO.Refs and Measures allocate per call.
func benchBulkLoadFold(b *testing.B, obj *workload.ClickObject, env *spec.Env, actions []*spec.Action) {
	refs := make([][]mdm.ValueID, obj.MO.Len())
	meas := make([][]float64, obj.MO.Len())
	for f := range refs {
		refs[f], meas[f] = obj.MO.Refs(mdm.FactID(f)), obj.MO.Measures(mdm.FactID(f))
	}
	var reclones int64
	var bottom int
	var load, fold time.Duration
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
		t0 := time.Now()
		err = w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
			for f := range refs {
				if err := load(refs[f], meas[f]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		load += time.Since(t0)
		bottom = int(w.Metrics().LiveRows)
		t1 := time.Now()
		if err := w.AdvanceTo(caltime.Date(2000, 10, 1)); err != nil {
			b.Fatal(err)
		}
		fold += time.Since(t1)
		reclones += w.Metrics().SnapshotReclones
	}
	b.ReportMetric(float64(load)/float64(b.N)/1e6, "load-ms/op")
	b.ReportMetric(float64(fold)/float64(b.N)/1e6, "fold-ms/op")
	b.ReportMetric(float64(obj.MO.Len()), "facts/op")
	b.ReportMetric(float64(bottom), "bottom-rows/op")
	b.ReportMetric(float64(reclones)/float64(b.N), "reclones/op")
}

// --- compiled specexec programs vs interpreted evaluation ---

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
