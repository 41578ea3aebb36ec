package views

import (
	"fmt"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/dims"
	"dimred/internal/mdm"
	"dimred/internal/obs"
	"dimred/internal/query"
	"dimred/internal/spec"
	"dimred/internal/storage"
	"dimred/internal/subcube"
)

// paperCubes builds a cube set over the paper's Appendix A object under
// the a1/a2 specification, loaded with the seven example facts.
func paperCubes(t *testing.T) (*spec.Env, *subcube.CubeSet) {
	t.Helper()
	p := dims.MustPaperMO()
	env, err := spec.NewEnv(p.Schema, "Time", p.Time)
	if err != nil {
		t.Fatal(err)
	}
	a1 := spec.MustCompileString("a1",
		`aggregate [Time.month, URL.domain] where URL.domain_grp = ".com" and NOW - 12 months < Time.month and Time.month <= NOW - 6 months`, env)
	a2 := spec.MustCompileString("a2",
		`aggregate [Time.quarter, URL.domain] where URL.domain_grp = ".com" and Time.quarter <= NOW - 4 quarters`, env)
	sp, err := spec.New(env, a1, a2)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := subcube.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.InsertMO(p.MO); err != nil {
		t.Fatal(err)
	}
	return env, cs
}

func granOf(t *testing.T, env *spec.Env, refs ...string) mdm.Granularity {
	t.Helper()
	g, err := env.Schema.ParseGranularity(refs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func candOf(t *testing.T, env *spec.Env, refs ...string) Candidate {
	t.Helper()
	g := granOf(t, env, refs...)
	return Candidate{Key: spec.EncodeGran(g), Gran: g}
}

func TestSelectGreedyBenefitPerByte(t *testing.T) {
	cands := []Candidate{
		{Key: "a", EstBytes: 100, Benefit: 5},
		{Key: "b", EstBytes: 100, Benefit: 9},
		{Key: "c", EstBytes: 300, Benefit: 7},
		{Key: "d", EstBytes: 100, Benefit: 7}, // ties with c on benefit; key breaks it
	}
	picked := Select(cands, Config{MaxBytes: 300, MaxViews: 8})
	got := make([]string, len(picked))
	for i, c := range picked {
		got[i] = c.Key
	}
	// b (9) first, then c (300 bytes) overflows the remaining 200 and is
	// skipped, then d (100) and a (100) fill the budget.
	want := []string{"b", "d", "a"}
	if len(got) != len(want) {
		t.Fatalf("picked %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("picked %v, want %v", got, want)
		}
	}
	if p2 := Select(cands, Config{MaxBytes: 300, MaxViews: 1}); len(p2) != 1 || p2[0].Key != "b" {
		t.Fatalf("MaxViews=1 picked %v", p2)
	}
}

func TestCandidatesScoring(t *testing.T) {
	env, _ := paperCubes(t)
	layout := storage.Layout{DimCols: env.Schema.NumDims(), MeasCols: len(env.Schema.Measures)}
	month := granOf(t, env, "Time.month", "URL.domain")
	bottom := env.Schema.BottomGranularity()
	counts := map[string]int64{
		spec.EncodeGran(month):  10,
		spec.EncodeGran(bottom): 50,
		"not-a-key":             99, // undecodable: dropped
	}
	// The bottom shape's cell estimate (20 = 5 days × 4 urls) caps at the
	// base row count, so it estimates no saving and is dropped; the
	// month shape (9 cells) keeps an 11-row saving.
	cands := Candidates(env, counts, 20, layout)
	if len(cands) != 1 || cands[0].Key != spec.EncodeGran(month) {
		t.Fatalf("got candidates %+v, want only the month shape", cands)
	}
	c := cands[0]
	if c.Count != 10 || c.Benefit <= 0 || c.EstRows != 9 || c.EstBytes != 9*layout.RowBytes() {
		t.Fatalf("bad candidate: %+v", c)
	}
	// Against a huge base everything decodable saves rows.
	if got := Candidates(env, counts, 1_000_000, layout); len(got) != 2 {
		t.Fatalf("got %d candidates against a large base, want 2: %+v", len(got), got)
	}
}

func TestBuildAndAnswerMatchesBasePath(t *testing.T) {
	env, cs := paperCubes(t)
	at := caltime.Date(2000, 5, 1)
	if _, err := cs.Sync(at); err != nil {
		t.Fatal(err)
	}
	met := obs.NewMetrics()
	gen := cs.Spec().Generation()
	cands := []Candidate{
		candOf(t, env, "Time.quarter", "URL.domain"),
		candOf(t, env, "Time.year", "URL.domain_grp"),
	}
	set := Build(env, cs, cands, at, Config{}, met)
	if set == nil || set.Len() != 2 {
		t.Fatalf("built %d views, want 2", set.Len())
	}
	if met.ViewBuilds.Load() != 2 {
		t.Fatalf("ViewBuilds = %d, want 2", met.ViewBuilds.Load())
	}
	// Views are sorted smallest first.
	vs := set.Views()
	for i := 1; i < len(vs); i++ {
		if vs[i-1].Rows() > vs[i].Rows() {
			t.Fatalf("views not sorted by rows: %d then %d", vs[i-1].Rows(), vs[i].Rows())
		}
	}

	for _, target := range []mdm.Granularity{
		granOf(t, env, "Time.quarter", "URL.domain"),
		granOf(t, env, "Time.quarter", "URL.domain_grp"),
		granOf(t, env, "Time.year", "URL.TOP"),
	} {
		q := subcube.Query{Target: target, Sel: query.Conservative, Agg: query.Availability}
		served, ok := set.Answer(env.Schema, q, at, gen)
		if !ok {
			t.Fatalf("no view served %s", env.Schema.GranString(target))
		}
		base, err := cs.Evaluate(q, at)
		if err != nil {
			t.Fatal(err)
		}
		if served.DumpCells() != base.DumpCells() {
			t.Errorf("view answer diverged at %s:\nview:\n%s\nbase:\n%s",
				env.Schema.GranString(target), served.DumpCells(), base.DumpCells())
		}
	}

	// A target below every view falls through.
	if _, ok := set.Answer(env.Schema, subcube.Query{
		Target: granOf(t, env, "Time.month", "URL.domain"),
		Sel:    query.Conservative, Agg: query.Availability,
	}, at, gen); ok {
		t.Error("month-level query served from quarter-level views")
	}
	// Staleness: wrong clock or wrong generation is skipped, not served.
	q := subcube.Query{Target: granOf(t, env, "Time.year", "URL.TOP"),
		Sel: query.Conservative, Agg: query.Availability}
	if _, ok := set.Answer(env.Schema, q, at+1, gen); ok {
		t.Error("served at a clock the set was not built at")
	}
	if _, ok := set.Answer(env.Schema, q, at, gen+1); ok {
		t.Error("served under a spec generation the set was not built under")
	}
}

func TestBuildRespectsByteBudget(t *testing.T) {
	env, cs := paperCubes(t)
	at := caltime.Date(2000, 5, 1)
	if _, err := cs.Sync(at); err != nil {
		t.Fatal(err)
	}
	met := obs.NewMetrics()
	cands := []Candidate{
		candOf(t, env, "Time.quarter", "URL.domain"),
		candOf(t, env, "Time.year", "URL.domain_grp"),
	}
	full := Build(env, cs, cands, at, Config{}, met)
	if full == nil || full.Len() != 2 {
		t.Fatalf("unbudgeted build made %d views", full.Len())
	}
	// A budget that only fits the smaller view drops the larger one.
	smallest := full.Views()[0].Bytes()
	tight := Build(env, cs, cands, at, Config{MaxBytes: smallest}, met)
	if tight == nil {
		t.Fatal("tight build returned nil")
	}
	if tight.Bytes() > smallest {
		t.Fatalf("tight build retains %d bytes over budget %d", tight.Bytes(), smallest)
	}
	// A budget below every view materializes nothing.
	if got := Build(env, cs, cands, at, Config{MaxBytes: 1}, met); got != nil {
		t.Fatalf("1-byte budget built %d views", got.Len())
	}
}

// granularities lists every granularity of schema, the first dimension's
// category varying slowest.
func granularities(schema *mdm.Schema) []mdm.Granularity {
	out := []mdm.Granularity{nil}
	for _, d := range schema.Dims {
		var next []mdm.Granularity
		for _, g := range out {
			for c := 0; c < d.NumCategories(); c++ {
				next = append(next, append(g[:len(g):len(g)], mdm.CategoryID(c)))
			}
		}
		out = next
	}
	return out
}

// TestMixedViewsServeAsTheBasePath: the paper fixture, synchronized where
// a1/a2 have folded facts to month and quarter, gets a view at each of its
// granularities, some of which therefore hold rows above their own
// granularity. Each view serves every view-eligible query whose target its
// granularity rolls up to and no other, as stored at its own granularity
// and folded above it, and every answer equals the base path's cell for
// cell, with base counts.
func TestMixedViewsServeAsTheBasePath(t *testing.T) {
	env, cs := paperCubes(t)
	grans := granularities(env.Schema)
	for _, at := range []caltime.Day{caltime.Date(2000, 12, 1), caltime.Date(2001, 6, 1)} {
		if _, err := cs.Sync(at); err != nil {
			t.Fatal(err)
		}
		gen := cs.Spec().Generation()
		mixed, folds := 0, 0
		for _, g1 := range grans {
			set := Build(env, cs, []Candidate{{Key: spec.EncodeGran(g1), Gran: g1}}, at, Config{}, obs.NewMetrics())
			if set.Len() != 1 {
				t.Fatalf("%v: built %d views at %s, want 1", at, set.Len(), env.Schema.GranString(g1))
			}
			mo, isMixed := set.Views()[0].MO(), false
			for f := 0; f < mo.Len(); f++ {
				isMixed = isMixed || !env.Schema.GranLE(mo.Gran(mdm.FactID(f)), g1)
			}
			if isMixed {
				mixed++
			}
			for _, g2 := range grans {
				for _, agg := range []query.AggApproach{query.Availability, query.Strict, query.LUB, query.Disaggregated} {
					q := subcube.Query{Target: g2, Sel: query.Conservative, Agg: agg}
					if !q.ViewEligible() {
						continue
					}
					what := fmt.Sprintf("%v: view at %s, %v target %s", at, env.Schema.GranString(g1), agg, env.Schema.GranString(g2))
					served, _, exact := set.Serve(env.Schema, q, at, gen)
					if reach := spec.RollupReachableSchema(env.Schema, g1, g2); (served != nil) != reach {
						t.Errorf("%s: served %v, but the view rolls up to the target: %v", what, served != nil, reach)
						continue
					}
					if served == nil {
						continue
					}
					if exact != env.Schema.GranEq(g1, g2) {
						t.Errorf("%s: served as stored: %v", what, exact)
					}
					if isMixed && !exact {
						folds++
					}
					base, err := cs.Evaluate(q, at)
					if err != nil {
						t.Fatal(err)
					}
					if served.DumpCells() != base.DumpCells() {
						t.Errorf("%s: the view answer\n%s\nthe base path\n%s", what, served.DumpCells(), base.DumpCells())
					}
				}
			}
		}
		if mixed == 0 || folds == 0 {
			t.Fatalf("%v: %d mixed views, %d folded answers from them: the fixture reduced nothing", at, mixed, folds)
		}
		t.Logf("%v: %d of %d views mixed, %d folds from them", at, mixed, len(grans), folds)
	}
}
