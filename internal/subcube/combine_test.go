package subcube

import (
	"fmt"
	"strings"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/query"
	"dimred/internal/spec"
	"dimred/internal/workload"
)

// combineTestSet loads a generated click stream into a three-cube set
// whose schema carries one measure of every aggregate kind, so the
// combine's merge is checked on SUM, COUNT (from base counts), MIN and
// MAX alike.
func combineTestSet(t *testing.T, seed int64) (*CubeSet, *spec.Env) {
	t.Helper()
	obj, err := workload.BuildClickMO(workload.ClickConfig{
		Seed: seed, Start: caltime.Date(2000, 1, 1), Days: 400,
		ClicksPerDay: 3, Domains: 6, URLsPerDomain: 2,
	})
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
	env, err := spec.NewEnv(schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.New(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env),
		spec.MustCompileString("q", `aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 3 quarters`, env))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := New(s)
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
	return cs, env
}

// unionAggregate is the combine by definition, as EvaluateTraced ran it
// before the merge: every subresult fact copied into one MO, aggregated
// once more.
func unionAggregate(t *testing.T, schema *mdm.Schema, subs []*mdm.MO, q Query) *mdm.MO {
	t.Helper()
	union := mdm.NewMO(schema)
	for _, sub := range subs {
		if sub == nil {
			continue
		}
		for f := 0; f < sub.Len(); f++ {
			fid := mdm.FactID(f)
			if _, err := union.AddFactAt(sub.Refs(fid), sub.Measures(fid), sub.BaseCount(fid), ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	out, err := query.Aggregate(union, q.Target, q.Agg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// cellOrder lists the result's cells in fact order.
func cellOrder(mo *mdm.MO) string {
	var b strings.Builder
	for f := 0; f < mo.Len(); f++ {
		b.WriteString(mo.CellString(mdm.FactID(f)))
		b.WriteByte('\n')
	}
	return b.String()
}

var nameSink string

// TestCombineMatchesAlgebra pins the cross-cube combine to the algebra
// it replaces. On generated cube sets, synchronized and not, under every
// selection and aggregation approach, merging the per-cube subresults by
// cell key gives what copying them into one MO and aggregating it again
// gave: the same cells, measures and base counts (DumpCells), the same
// floors, the same first-seen fact order and the same fact names, every
// one of them stored. The
// cases the combine treats apart must all occur: a cell split across
// cubes, a single live cube (returned as it stands), no live cube (an
// empty result at the target), pruned and empty cubes, and LUB
// subresults at different effective targets (the one place the union is
// still aggregated).
func TestCombineMatchesAlgebra(t *testing.T) {
	t.Run("merge equals union", combineEqualsUnion)
	t.Run("re-aggregation is the identity", reaggregationIsIdentity)
	t.Run("LUB parts at different targets", lubPartsNeedTheUnion)
}

func combineEqualsUnion(t *testing.T) {
	targets := [][]string{
		{"Time.quarter", "URL.domain_grp"}, // above every cube: cells split across cubes
		{"Time.month", "URL.domain"},       // the middle cube's own granularity
		{"Time.week", "URL.domain_grp"},    // parallel to month and quarter
		{"Time.day", "URL.url"},            // below every reduced cube
		{"Time.year", "URL.TOP"},
	}
	preds := []string{
		"",
		`Time.day <= 2000/9/15`, // finer than the reduced cubes
		`2001/1/10 <= Time.day`, // the bottom cube alone
		`Time.year <= 1998`,     // nothing: every cube pruned
		`URL.domain_grp = ".com" and Time.month <= 2000/11`, // a plain test beside a time bound
		`Time.quarter = 2000Q2 or URL.domain_grp != ".com"`, // two disjuncts, one unbounded in time
		`Time.month in {2000/3, 2000/12} and NOW - 9 months <= Time.month`,
	}
	sels := []query.Approach{query.Conservative, query.Liberal, query.Weighted}
	aggs := []query.AggApproach{query.Availability, query.Strict, query.LUB, query.Disaggregated}

	var split, lone, none, pruned, empty, lubFallback int
	for _, seed := range []int64{11, 12} {
		cs, env := combineTestSet(t, seed)
		schema := env.Schema
		syncAt := caltime.Date(2001, 2, 3)
		if _, err := cs.Sync(syncAt); err != nil {
			t.Fatal(err)
		}
		// Queried at the sync day the set is synchronized; three weeks on
		// (inside one significant period) every cube answers through its
		// view over its parents.
		for _, at := range []caltime.Day{syncAt, syncAt + 21} {
			for _, refs := range targets {
				target, err := schema.ParseGranularity(refs)
				if err != nil {
					t.Fatal(err)
				}
				for _, src := range preds {
					var pred *query.Predicate
					if src != "" {
						pred = query.MustParsePred(src, env)
					}
					for _, sel := range sels {
						for _, agg := range aggs {
							q := Query{Pred: pred, Target: target, Sel: sel, Agg: agg}
							label := fmt.Sprintf("seed %d at %v: %v where %q, %v/%v", seed, at, refs, src, sel, agg)
							subs, err := cs.evaluateCubes(q, at, nil)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							want := unionAggregate(t, schema, subs, q)
							got, err := query.Combine(schema, subs, q.Target, q.Agg)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if g, w := got.DumpCells(), want.DumpCells(); g != w {
								t.Fatalf("%s: merge differs from union + Aggregate\nmerge:\n%s\nunion:\n%s", label, g, w)
							}
							if !schema.GranEq(got.Floors(), want.Floors()) {
								t.Fatalf("%s: floors %s, want %s", label, schema.GranString(got.Floors()), schema.GranString(want.Floors()))
							}
							if g, w := cellOrder(got), cellOrder(want); g != w {
								t.Fatalf("%s: fact order differs\nmerge:\n%s\nunion:\n%s", label, g, w)
							}
							for f := 0; f < got.Len(); f++ {
								if g, w := got.Name(mdm.FactID(f)), want.Name(mdm.FactID(f)); g != w {
									t.Fatalf("%s: fact %d is named %q, want %q", label, f, g, w)
								}
							}
							// A fact without a stored name renders one
							// through fmt.Sprintf on every Name call.
							if n := testing.AllocsPerRun(1, func() {
								for f := 0; f < got.Len(); f++ {
									nameSink = got.Name(mdm.FactID(f))
								}
							}); n != 0 {
								t.Fatalf("%s: the combined result holds unnamed facts", label)
							}
							// Evaluate is evaluateCubes + Combine: the default
							// aggregation is enough to show the wiring.
							if agg == query.Availability {
								whole, err := cs.Evaluate(q, at)
								if err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								if g, w := whole.DumpCells(), want.DumpCells(); g != w {
									t.Fatalf("%s: Evaluate differs from union + Aggregate\ngot:\n%s\nwant:\n%s", label, g, w)
								}
							}

							live, facts := 0, 0
							var floors []mdm.Granularity
							for _, sub := range subs {
								switch {
								case sub == nil:
									pruned++
								case sub.Len() == 0:
									empty++
								default:
									live++
									facts += sub.Len()
									floors = append(floors, sub.Floors())
								}
							}
							switch {
							case live == 0:
								none++
								if got.Len() != 0 || !schema.GranEq(got.Floors(), target) {
									t.Fatalf("%s: no live cube gave %d facts at %s", label, got.Len(), schema.GranString(got.Floors()))
								}
							case live == 1:
								lone++
							case got.Len() < facts:
								split++
							}
							for _, f := range floors[min(1, len(floors)):] {
								if agg == query.LUB && !schema.GranEq(f, floors[0]) {
									lubFallback++
									break
								}
							}
						}
					}
				}
			}
		}
	}
	for name, n := range map[string]int{
		"a cell split across cubes": split, "one live cube": lone, "no live cube": none,
		"a pruned cube": pruned, "an empty cube": empty, "LUB subresults at different targets": lubFallback,
	} {
		if n == 0 {
			t.Errorf("no case exercised %s", name)
		}
	}
	t.Logf("split %d, lone %d, none %d, pruned cubes %d, empty cubes %d, LUB fallbacks %d", split, lone, none, pruned, empty, lubFallback)
}

// withoutCount returns a copy of mo with its COUNT measures zeroed.
func withoutCount(mo *mdm.MO) *mdm.MO {
	out := mo.Clone()
	for j, m := range mo.Schema().Measures {
		if m.Agg == mdm.AggCount {
			for f := 0; f < out.Len(); f++ {
				out.SetMeasure(mdm.FactID(f), j, 0)
			}
		}
	}
	return out
}

// reaggregationIsIdentity states the property the merge rests on:
// Aggregate(Aggregate(x, T), T) = Aggregate(x, T) — a result is already
// grouped at its floors, and roll-up∘roll-up = roll-up. It holds for
// every approach, on single-granularity inputs (each cube's rows) and on
// the mixed-granularity reduced fact set, with one exception the combine
// has to respect: under Disaggregated the second fold re-derives COUNT
// from whole base counts where the first had split it into shares, so a
// lone Disaggregated part of a schema with a COUNT measure is still
// aggregated again.
func reaggregationIsIdentity(t *testing.T) {
	cs, env := combineTestSet(t, 11)
	schema := env.Schema
	if _, err := cs.Sync(caltime.Date(2001, 2, 3)); err != nil {
		t.Fatal(err)
	}
	all := mdm.NewMO(schema)
	inputs := []*mdm.MO{all}
	for _, c := range cs.cubes {
		mo, err := c.MO(schema)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, mo)
		for f := 0; f < mo.Len(); f++ {
			fid := mdm.FactID(f)
			if _, err := all.AddFactAt(mo.Refs(fid), mo.Measures(fid), mo.BaseCount(fid), mo.Name(fid)); err != nil {
				t.Fatal(err)
			}
		}
	}
	countMoved := false
	for _, refs := range [][]string{
		{"Time.quarter", "URL.domain_grp"}, {"Time.month", "URL.domain"},
		{"Time.week", "URL.domain_grp"}, {"Time.day", "URL.url"}, {"Time.year", "URL.TOP"},
	} {
		target, err := schema.ParseGranularity(refs)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range inputs {
			for _, agg := range []query.AggApproach{query.Availability, query.Strict, query.LUB, query.Disaggregated} {
				once, err := query.Aggregate(x, target, agg)
				if err != nil {
					t.Fatal(err)
				}
				twice, err := query.Aggregate(once, target, agg)
				if err != nil {
					t.Fatal(err)
				}
				a, b := once, twice
				if agg == query.Disaggregated {
					countMoved = countMoved || once.DumpCells() != twice.DumpCells()
					a, b = withoutCount(once), withoutCount(twice)
				}
				if a.DumpCells() != b.DumpCells() || !schema.GranEq(once.Floors(), twice.Floors()) {
					t.Fatalf("input %d, %v, %v: aggregating the result again changed it\nonce:\n%s\ntwice:\n%s",
						i, refs, agg, a.DumpCells(), b.DumpCells())
				}
			}
		}
	}
	if !countMoved {
		t.Error("no Disaggregated case moved a COUNT measure: the lone-part exception is untested")
	}
}

// lubPartsNeedTheUnion is the counter-example that keeps one use of the
// union: under LUB each cube raises the target over its own facts only,
// so the bottom and month cubes answer [month, domain] at (month,
// domain) and the quarter cube at (quarter, domain_grp). Merging those
// parts by key — what Combine does under every other approach — leaves
// cells at two granularities; the answer raises them all to the coarser.
func lubPartsNeedTheUnion(t *testing.T) {
	cs, env := combineTestSet(t, 11)
	schema := env.Schema
	at := caltime.Date(2001, 2, 3)
	if _, err := cs.Sync(at); err != nil {
		t.Fatal(err)
	}
	q := Query{Target: mustGran(t, env, "Time.month", "URL.domain"), Agg: query.LUB}
	subs, err := cs.evaluateCubes(q, at, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := unionAggregate(t, schema, subs, q)
	coarse := mustGran(t, env, "Time.quarter", "URL.domain_grp")
	if !schema.GranEq(want.Floors(), coarse) {
		t.Fatalf("the union aggregates to %s, want %s", schema.GranString(want.Floors()), schema.GranString(coarse))
	}
	byKey, err := query.Combine(schema, subs, q.Target, query.Availability)
	if err != nil {
		t.Fatal(err)
	}
	if byKey.DumpCells() == want.DumpCells() {
		t.Fatal("merging LUB parts at different targets by key gave the LUB answer: the counter-example is gone")
	}
	got, err := query.Combine(schema, subs, q.Target, q.Agg)
	if err != nil {
		t.Fatal(err)
	}
	if got.DumpCells() != want.DumpCells() || !schema.GranEq(got.Floors(), coarse) {
		t.Fatalf("Combine under LUB:\n%s\nwant:\n%s", got.DumpCells(), want.DumpCells())
	}
}
