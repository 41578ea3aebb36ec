package query

import (
	"fmt"
	"math"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/core"
	"dimred/internal/mdm"
	"dimred/internal/spec"
	"dimred/internal/workload"
)

// sameCellsWithin describes the first difference between two answers by
// cell, base counts exactly and measures within a relative tol, or
// returns "".
func sameCellsWithin(got, want *mdm.MO, tol float64) string {
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
			if g := got.Measure(gf, j); math.Abs(g-v) > tol*max(1, math.Abs(g), math.Abs(v)) {
				return fmt.Sprintf("cell %s: measure %d = %v, want %v", want.CellString(wf), j, g, v)
			}
		}
	}
	return ""
}

// selectThenFold is the direct side of law L1: σ under the approach,
// then α to the target — SelectWeighted with AggregateWeighted under the
// weighted approach.
func selectThenFold(t *testing.T, mo *mdm.MO, p *Predicate, at caltime.Day, sel Approach, target mdm.Granularity) *mdm.MO {
	t.Helper()
	var out *mdm.MO
	var err error
	if sel == Weighted {
		var kept *mdm.MO
		var w []float64
		if kept, w, err = SelectWeighted(mo, p, at); err == nil {
			out, err = AggregateWeighted(kept, w, target, Availability)
		}
	} else {
		var kept *mdm.MO
		if kept, err = Select(mo, p, at, sel); err == nil {
			out, err = Aggregate(kept, target, Availability)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// filterThenFold is the view side of law L1, as views.Set.Serve computes
// it from a view at g: view (α[g](O)) filtered by the approach's
// Selector, sums scaled by the weighted approach's certainties, then
// folded to the target.
func filterThenFold(t *testing.T, view *mdm.MO, p *Predicate, at caltime.Day, approach Approach, target mdm.Granularity) *mdm.MO {
	t.Helper()
	sel := p.Selector(at, approach)
	kept, err := Filter(view, sel)
	if err != nil {
		t.Fatal(err)
	}
	if approach == Weighted {
		ScaleSums(kept, sel.Weights)
	}
	out, err := Aggregate(kept, target, Availability)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSelectionCommutesWithRollUp states law L1, which serves a
// predicated query from a view: when granularity g decides predicate p
// (Predicate.DecidedAt — every atom tests a category g rolls up to),
// α[G](σ[p](O)) = α[G](σ[p](α[g](O))) for every target G that g rolls up
// to, under the conservative, liberal and weighted approaches alike, on
// the reductions of TestTwoStepAggregationDistributive (facts at mixed
// granularities, weeks beside months) and on the bottom-level stream. The
// catalog holds time atoms at every category (NOW-relative ones among
// them), value atoms at every URL category, constant atoms, a
// conjunction and a disjunction; each granularity is tried with the ones
// it decides. A predicate g does not decide breaks the law: Time.day over
// a month view, URL.url over a domain view, and Time.quarter = 1999Q4
// over a month view (an equality beside the week, whose facts the week
// reduction stores and availability rolls into months) must each differ
// on some input and approach.
func TestSelectionCommutesWithRollUp(t *testing.T) {
	start := caltime.Date(1999, 1, 1)
	env, clicks := lawClicks(t, workload.ClickConfig{
		Seed: 21, Start: start, Days: 600, ClicksPerDay: 2, Domains: 7, URLsPerDomain: 3,
	})
	schema := env.Schema
	at := start + 560
	inputs := []*mdm.MO{clicks}
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
		inputs = append(inputs, red.MO)
	}
	url := schema.Dims[1]
	nameAt := func(cat string) string {
		c, ok := url.CategoryByName(cat)
		if !ok {
			t.Fatalf("no URL.%s", cat)
		}
		return url.ValueName(url.ValuesIn(c)[0])
	}
	catalog := []string{
		`Time.day <= 1999/8/15`,
		`Time.week <= NOW - 30 weeks`,
		`Time.month <= NOW - 5 months`,
		`Time.month in {1999/3, 1999/11, 2000/2}`,
		`Time.quarter = 1999Q4`,
		`Time.year <= NOW - 1 years`,
		fmt.Sprintf(`URL.url = %q`, nameAt("url")),
		fmt.Sprintf(`URL.domain != %q`, nameAt("domain")),
		fmt.Sprintf(`URL.domain_grp = %q`, nameAt("domain_grp")),
		`true and URL.domain_grp != ".com"`,
		`Time.quarter <= NOW - 3 quarters and URL.domain_grp = ".com"`,
		`Time.month <= NOW - 14 months or URL.domain_grp = ".org"`,
		`false or Time.year = 2000`,
	}
	preds := make([]*Predicate, len(catalog))
	for i, src := range catalog {
		preds[i] = MustParsePred(src, env)
	}
	gran := func(refs ...string) mdm.Granularity {
		g, err := schema.ParseGranularity(refs)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	undecided := []struct {
		view mdm.Granularity
		pred int
	}{
		{gran("Time.month", "URL.url"), 0},
		{gran("Time.day", "URL.domain"), 6},
		{gran("Time.month", "URL.url"), 4},
	}
	broken := make([]bool, len(undecided))
	grans := granularities(schema)
	approaches := []Approach{Conservative, Liberal, Weighted}
	checked := 0
	for n, in := range inputs {
		// direct[p][a][i] is σ then α to grans[i], computed once.
		direct := make([][][]*mdm.MO, len(preds))
		for p := range preds {
			direct[p] = make([][]*mdm.MO, len(approaches))
			for a, approach := range approaches {
				direct[p][a] = make([]*mdm.MO, len(grans))
				for i, g2 := range grans {
					direct[p][a][i] = selectThenFold(t, in, preds[p], at, approach, g2)
				}
			}
		}
		for _, g := range grans {
			view, err := Aggregate(in, g, Availability)
			if err != nil {
				t.Fatal(err)
			}
			for p, pred := range preds {
				decided := pred.DecidedAt(g)
				for u, c := range undecided {
					if c.pred == p && schema.GranEq(c.view, g) {
						if decided {
							t.Fatalf("%s decides %s", schema.GranString(g), catalog[p])
						}
						for a, approach := range approaches {
							got := filterThenFold(t, view, pred, at, approach, g)
							if sameCellsWithin(got, direct[p][a][indexOf(schema, grans, g)], 1e-9) != "" {
								broken[u] = true
							}
						}
					}
				}
				if !decided {
					continue
				}
				for a, approach := range approaches {
					for i, g2 := range grans {
						if !spec.RollupReachableSchema(schema, g, g2) {
							continue
						}
						checked++
						got := filterThenFold(t, view, pred, at, approach, g2)
						want := direct[p][a][i]
						diff := ""
						if approach == Weighted {
							diff = sameCellsWithin(got, want, 1e-9)
						} else if got.DumpCells() != want.DumpCells() {
							diff = fmt.Sprintf("\n%s\nvs\n%s", got.DumpCells(), want.DumpCells())
						}
						if diff != "" {
							t.Fatalf("input %d: %v %q from the view at %s to %s differs from σ then α: %s", n,
								approach, catalog[p], schema.GranString(g), schema.GranString(g2), diff)
						}
					}
				}
			}
		}
	}
	for u, c := range undecided {
		if !broken[u] {
			t.Errorf("%q from the view at %s equals σ then α on every input and approach: the fixture cannot tell a deciding view",
				catalog[c.pred], schema.GranString(c.view))
		}
	}
	t.Logf("%d (input, view, predicate, approach, target) cases", checked)
}

func indexOf(schema *mdm.Schema, grans []mdm.Granularity, g mdm.Granularity) int {
	for i, h := range grans {
		if schema.GranEq(h, g) {
			return i
		}
	}
	return -1
}
