package query

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/core"
	"dimred/internal/mdm"
	"dimred/internal/spec"
	"dimred/internal/workload"
)

// canonAgg renders an MO's cells and measures for comparison, ignoring
// fact names.
func canonAgg(mo *mdm.MO) string {
	var lines []string
	for f := 0; f < mo.Len(); f++ {
		fid := mdm.FactID(f)
		var b strings.Builder
		b.WriteString(mo.CellString(fid))
		for j := range mo.Schema().Measures {
			fmt.Fprintf(&b, "|%v", mo.Measure(fid, j))
		}
		lines = append(lines, b.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
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

// lawClicks generates a click stream over a schema that carries one
// measure of every default aggregate kind (COUNT reads base counts), and
// returns its environment and the stream at the bottom granularity.
func lawClicks(t testing.TB, cfg workload.ClickConfig) (*spec.Env, *mdm.MO) {
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
	env, err := spec.NewEnv(schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	mo := mdm.NewMO(schema)
	for f := 0; f < obj.MO.Len(); f++ {
		m := obj.MO.Measures(mdm.FactID(f))
		if _, err := mo.AddFact(obj.MO.Refs(mdm.FactID(f)), []float64{m[1], 0, m[2], m[3]}); err != nil {
			t.Fatal(err)
		}
	}
	return env, mo
}

// lawSpecs are accepted click specifications whose reductions store facts
// at mixed granularities: a delete, the benchmark's month and quarter
// pair, that pair under an action that folds the URL dimension to its
// top, and a week action, which month does not nest.
var lawSpecs = [][]string{
	{`aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`,
		`delete where Time.quarter <= NOW - 4 quarters`},
	{`aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`,
		`aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`},
	{`aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`,
		`aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`,
		`aggregate [Time.year, URL.TOP] where Time.year <= NOW - 1 years`},
	{`aggregate [Time.week, URL.domain] where Time.week <= NOW - 8 weeks`},
}

// TestTwoStepAggregationDistributive states the law behind the Figure 8
// evaluation plan and every view answer: aggregating first to g1 and then
// to g2 equals aggregating directly to g2, for every g1 <=_g g2, measures
// and base counts alike. Under availability it holds on the bottom-level
// click stream and on its Definition 2 reductions, which store facts at
// mixed granularities: a fact above g1 stays where it is in the first
// step, and the second does to it what the direct fold does. Strict and
// Disaggregated are the stated exceptions (a strict first step drops a
// fact the direct fold keeps; a disaggregated one splits what it cannot
// join again), so neither may serve from a view (views.Set.Serve, which
// admits no LUB either, and a predicate only under law L1 —
// TestSelectionCommutesWithRollUp); each must break the law on some pair
// here, or the inputs were not mixed.
func TestTwoStepAggregationDistributive(t *testing.T) {
	start := caltime.Date(1999, 1, 1)
	env, clicks := lawClicks(t, workload.ClickConfig{
		Seed: 21, Start: start, Days: 600, ClicksPerDay: 2, Domains: 7, URLsPerDomain: 3,
	})
	type input struct {
		what string
		mo   *mdm.MO
	}
	var inputs []input
	at := start + 560
	for i, srcs := range lawSpecs {
		actions := make([]*spec.Action, len(srcs))
		for j, src := range srcs {
			actions[j] = spec.MustCompileString(fmt.Sprint("a", j), src, env)
		}
		sp, err := spec.New(env, actions...)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		red, err := core.Reduce(sp, clicks, at)
		if err != nil {
			t.Fatal(err)
		}
		what, levels := fmt.Sprintf("spec %d reduced at %v", i, at), map[string]bool{}
		for f := 0; f < red.MO.Len(); f++ {
			levels[env.Schema.GranString(red.MO.Gran(mdm.FactID(f)))] = true
		}
		if len(levels) < 2 {
			t.Fatalf("%s stores facts at %d granularities, want a mixture", what, len(levels))
		}
		inputs = append(inputs, input{what, red.MO})
	}
	inputs = append(inputs, input{"the bottom-level stream", clicks})
	grans := granularities(env.Schema)
	broken := map[AggApproach]bool{}
	for _, in := range inputs {
		for _, kind := range []AggApproach{Availability, Strict, Disaggregated} {
			if broken[kind] {
				continue // an exception needs one counterexample
			}
			direct := make([]string, len(grans))
			for i, g2 := range grans {
				d, err := Aggregate(in.mo, g2, kind)
				if err != nil {
					t.Fatal(err)
				}
				direct[i] = d.DumpCells()
			}
		pairs:
			for _, g1 := range grans {
				step1, err := Aggregate(in.mo, g1, kind)
				if err != nil {
					t.Fatal(err)
				}
				for i, g2 := range grans {
					if !spec.RollupReachableSchema(env.Schema, g1, g2) {
						continue
					}
					step2, err := Aggregate(step1, g2, kind)
					if err != nil {
						t.Fatal(err)
					}
					if step2.DumpCells() == direct[i] {
						continue
					}
					if kind != Availability {
						broken[kind] = true
						break pairs
					}
					t.Errorf("%s: %s via %s differs from direct:\n%s\nvs\n%s", in.what, env.Schema.GranString(g2),
						env.Schema.GranString(g1), step2.DumpCells(), direct[i])
				}
			}
		}
	}
	for _, kind := range []AggApproach{Strict, Disaggregated} {
		if !broken[kind] {
			t.Errorf("%v folds in two steps as in one on every input and pair", kind)
		}
	}
}

// FuzzAvailabilityTwoStep: availability folds in two steps as in one on
// any MO, not only on a reduction's. The input picks g1 and a g2 that g1
// rolls up to, then up to 64 facts four bytes each: a value of either
// click dimension at any of its categories, a measure and a base count.
// A longer input is skipped, so the minimizer does not stall the run.
func FuzzAvailabilityTwoStep(f *testing.F) {
	env, _ := lawClicks(f, workload.ClickConfig{
		Seed: 3, Start: caltime.Date(1999, 11, 20), Days: 90, ClicksPerDay: 2, Domains: 4, URLsPerDomain: 2,
	})
	schema := env.Schema
	grans := granularities(schema)
	f.Add([]byte{0, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{7, 1, 200, 3, 40, 1, 90, 3, 41, 2, 250, 1, 7, 3})
	f.Add([]byte{13, 2, 17, 0, 9, 9, 18, 1, 9, 9, 60, 2, 9, 9, 61, 3, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 2+4*64 {
			return
		}
		g1 := grans[int(data[0])%len(grans)]
		var above []mdm.Granularity
		for _, g := range grans {
			if schema.GranLE(g1, g) {
				above = append(above, g)
			}
		}
		g2 := above[int(data[1])%len(above)]
		mo := mdm.NewMO(schema)
		for b := data[2:]; len(b) >= 4; b = b[4:] {
			refs := []mdm.ValueID{
				mdm.ValueID(int(b[0]) % schema.Dims[0].NumValues()),
				mdm.ValueID(int(b[1]) % schema.Dims[1].NumValues()),
			}
			v := float64(b[2])
			if _, err := mo.AddFactAt(refs, []float64{v, 0, v, -v}, 1+int64(b[3]%4), ""); err != nil {
				t.Fatal(err)
			}
		}
		step1, err := Aggregate(mo, g1, Availability)
		if err != nil {
			t.Fatal(err)
		}
		step2, err := Aggregate(step1, g2, Availability)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := Aggregate(mo, g2, Availability)
		if err != nil {
			t.Fatal(err)
		}
		if step2.DumpCells() != direct.DumpCells() {
			t.Errorf("%s via %s differs from direct:\n%s\nvs\n%s", schema.GranString(g2), schema.GranString(g1),
				step2.DumpCells(), direct.DumpCells())
		}
	})
}

// TestAggregateWeightedExpectedValues checks the weighted pipeline: a
// predicate each quarter fact satisfies with weight 2/3 yields expected
// SUM contributions scaled by 2/3.
func TestAggregateWeightedExpectedValues(t *testing.T) {
	td := mdm.NewDimension("T")
	leaf := td.MustAddCategory("leaf", true)
	grp := td.MustAddCategory("grp", false)
	if err := td.Contains(leaf, grp); err != nil {
		t.Fatal(err)
	}
	td.MustFinalize()
	g1 := td.MustAddValue(grp, "g1", 0, nil)
	l1 := td.MustAddValue(leaf, "l1", 1, map[mdm.CategoryID]mdm.ValueID{grp: g1})
	l2 := td.MustAddValue(leaf, "l2", 2, map[mdm.CategoryID]mdm.ValueID{grp: g1})
	l3 := td.MustAddValue(leaf, "l3", 3, map[mdm.CategoryID]mdm.ValueID{grp: g1})
	_ = l2
	_ = l3
	schema, err := mdm.NewSchema("F", []*mdm.Dimension{td}, []mdm.Measure{{Name: "v", Agg: mdm.AggSum}})
	if err != nil {
		t.Fatal(err)
	}
	mo := mdm.NewMO(schema)
	// One fact already aggregated to g1 (covers leaves l1..l3).
	if _, err := mo.AddFactAt([]mdm.ValueID{g1}, []float64{90}, 3, "agg"); err != nil {
		t.Fatal(err)
	}
	// A second fact at leaf level that certainly matches.
	if _, err := mo.AddFact([]mdm.ValueID{l1}, []float64{10}); err != nil {
		t.Fatal(err)
	}
	// Predicate: leaf in {l1, l2} — the g1 fact matches with weight 2/3.
	// (This dimension has no time model, so build the predicate
	// programmatically against a time-free env.)
	env := timeFreeEnv(t, schema)
	pred, err := ParsePred(`T.leaf in {"l1", "l2"}`, env)
	if err != nil {
		t.Fatal(err)
	}
	sel, ws, err := SelectWeighted(mo, pred, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Len() != 2 {
		t.Fatalf("weighted selection = %d facts", sel.Len())
	}
	res, err := AggregateWeighted(sel, ws, mdm.Granularity{grp}, Availability)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("result = %d facts", res.Len())
	}
	// Expected: 90 * 2/3 + 10 * 1 = 70.
	if got := res.Measure(0, 0); got != 70 {
		t.Errorf("expected value = %v, want 70", got)
	}
	// Weight arity mismatch is rejected.
	if _, err := AggregateWeighted(sel, ws[:1], mdm.Granularity{grp}, Availability); err == nil {
		t.Error("short weights accepted")
	}
}

func timeFreeEnv(t *testing.T, schema *mdm.Schema) *spec.Env {
	t.Helper()
	env, err := spec.NewEnv(schema, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestAggregationWithMinMaxMeasures exercises distributivity for MIN and
// MAX default aggregate functions, which the SUM-only paper example does
// not cover.
func TestAggregationWithMinMaxMeasures(t *testing.T) {
	td := mdm.NewDimension("T")
	leaf := td.MustAddCategory("leaf", true)
	grp := td.MustAddCategory("grp", false)
	if err := td.Contains(leaf, grp); err != nil {
		t.Fatal(err)
	}
	td.MustFinalize()
	g1 := td.MustAddValue(grp, "g1", 0, nil)
	g2 := td.MustAddValue(grp, "g2", 0, nil)
	l1 := td.MustAddValue(leaf, "l1", 1, map[mdm.CategoryID]mdm.ValueID{grp: g1})
	l2 := td.MustAddValue(leaf, "l2", 2, map[mdm.CategoryID]mdm.ValueID{grp: g1})
	l3 := td.MustAddValue(leaf, "l3", 3, map[mdm.CategoryID]mdm.ValueID{grp: g2})
	schema, err := mdm.NewSchema("F", []*mdm.Dimension{td}, []mdm.Measure{
		{Name: "lo", Agg: mdm.AggMin},
		{Name: "hi", Agg: mdm.AggMax},
		{Name: "n", Agg: mdm.AggCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	mo := mdm.NewMO(schema)
	for i, v := range []mdm.ValueID{l1, l2, l3} {
		if _, err := mo.AddFact([]mdm.ValueID{v}, []float64{float64(10 - i), float64(i), 99}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Aggregate(mo, mdm.Granularity{grp}, Availability)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("groups = %d", res.Len())
	}
	for f := 0; f < res.Len(); f++ {
		fid := mdm.FactID(f)
		switch res.CellString(fid) {
		case "g1":
			if res.Measure(fid, 0) != 9 { // min(10, 9)
				t.Errorf("g1 min = %v", res.Measure(fid, 0))
			}
			if res.Measure(fid, 1) != 1 { // max(0, 1)
				t.Errorf("g1 max = %v", res.Measure(fid, 1))
			}
			if res.Measure(fid, 2) != 2 { // COUNT ignores the stored 99
				t.Errorf("g1 count = %v", res.Measure(fid, 2))
			}
		case "g2":
			if res.Measure(fid, 0) != 8 || res.Measure(fid, 1) != 2 || res.Measure(fid, 2) != 1 {
				t.Errorf("g2 = %v %v %v", res.Measure(fid, 0), res.Measure(fid, 1), res.Measure(fid, 2))
			}
		default:
			t.Errorf("unexpected cell %q", res.CellString(fid))
		}
	}
	// Two-step TOP roll-up stays distributive for MIN/MAX/COUNT.
	top, err := Aggregate(res, mdm.Granularity{td.Top()}, Availability)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Aggregate(mo, mdm.Granularity{td.Top()}, Availability)
	if err != nil {
		t.Fatal(err)
	}
	if canonAgg(top) != canonAgg(direct) {
		t.Errorf("MIN/MAX/COUNT two-step differs:\n%s\nvs\n%s", canonAgg(top), canonAgg(direct))
	}
}
