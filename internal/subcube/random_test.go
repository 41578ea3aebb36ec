package subcube

import (
	"fmt"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/core"
	"dimred/internal/query"
	"dimred/internal/spec"
	"dimred/internal/workload"
)

// TestRandomizedEquivalence drives the subcube engine and the
// Definition 2 semantics with generated click-streams under several
// specifications and checks that query answers agree at every time
// point. This is the strong form of the S5 experiment.
func TestRandomizedEquivalence(t *testing.T) {
	specs := [][]string{
		{
			`aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`,
		},
		{
			`aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`,
			`aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 3 quarters`,
		},
		{
			// Shrinking window covered by a coarser action.
			`aggregate [Time.month, URL.domain] where NOW - 9 months < Time.month and Time.month <= NOW - 2 months`,
			`aggregate [Time.quarter, URL.domain] where Time.quarter <= NOW - 3 quarters`,
		},
		{
			// Group-restricted actions plus a catch-all deletion.
			`aggregate [Time.month, URL.domain] where URL.domain_grp = ".com" and Time.month <= NOW - 2 months`,
			`aggregate [Time.month, URL.domain_grp] where URL.domain_grp = ".edu" and Time.month <= NOW - 2 months`,
			`delete where Time.year <= NOW - 3 years`,
		},
	}
	queries := []string{
		`aggregate [Time.quarter, URL.domain_grp]`,
		`aggregate [Time.month, URL.domain] where URL.domain_grp = ".com"`,
		`aggregate [Time.year, URL.TOP]`,
	}
	times := []caltime.Day{
		caltime.Date(2000, 4, 1), caltime.Date(2000, 9, 13),
		caltime.Date(2001, 2, 1), caltime.Date(2002, 7, 4),
		caltime.Date(2004, 1, 2),
	}
	for si, srcs := range specs {
		si, srcs := si, srcs
		t.Run(fmt.Sprintf("spec%d", si), func(t *testing.T) {
			obj, err := workload.BuildClickMO(workload.ClickConfig{
				Seed: int64(100 + si), Start: caltime.Date(2000, 1, 1),
				Days: 180, ClicksPerDay: 25, Domains: 8, URLsPerDomain: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
			if err != nil {
				t.Fatal(err)
			}
			var actions []*spec.Action
			for i, src := range srcs {
				actions = append(actions, spec.MustCompileString(fmt.Sprintf("a%d", i), src, env))
			}
			s, err := spec.New(env, actions...)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := New(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := cs.InsertMO(obj.MO); err != nil {
				t.Fatal(err)
			}
			for _, at := range times {
				if _, err := cs.Sync(at); err != nil {
					t.Fatal(err)
				}
				red, err := core.Reduce(s, obj.MO, at)
				if err != nil {
					t.Fatal(err)
				}
				for _, qsrc := range queries {
					q := MustParseQuery(qsrc, env)
					engine, err := cs.Evaluate(q, at)
					if err != nil {
						t.Fatal(err)
					}
					sel := red.MO
					if q.Pred != nil {
						sel, err = query.Select(red.MO, q.Pred, at, query.Conservative)
						if err != nil {
							t.Fatal(err)
						}
					}
					direct, err := query.Aggregate(sel, q.Target, query.Availability)
					if err != nil {
						t.Fatal(err)
					}
					if canon(engine) != canon(direct) {
						t.Fatalf("divergence at %v, query %q:\nengine:\n%s\ndirect:\n%s",
							at, qsrc, canon(engine), canon(direct))
					}
				}
			}
		})
	}
}

// TestRandomizedStaleQueryEquivalence is the stale law: under a
// generated stream, evaluating a query at t on a cube set last
// synchronized earlier equals synchronizing at t and then evaluating, at
// any staleness — here 1, 3, 6, 12, 24 and 36 months. It runs every
// selection and aggregation approach, on the compiled and the interpreted
// evaluator, over a two-level specification and a three-level windowed
// one whose month-cube rows reach the year cube once the staleness
// passes a year, in one step, as a Sync moves them.
func TestRandomizedStaleQueryEquivalence(t *testing.T) {
	obj, err := workload.BuildClickMO(workload.ClickConfig{
		Seed: 77, Start: caltime.Date(2000, 1, 1),
		Days: 500, ClicksPerDay: 6, Domains: 6, URLsPerDomain: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	specs := [][]string{
		{
			`aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`,
			`aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 2 quarters`,
		},
		{
			`aggregate [Time.month, URL.domain] where NOW - 9 months < Time.month and Time.month <= NOW - 2 months`,
			`aggregate [Time.quarter, URL.domain] where NOW - 8 quarters < Time.quarter and Time.quarter <= NOW - 3 quarters`,
			`aggregate [Time.year, URL.domain] where Time.year <= NOW - 2 years`,
		},
	}
	queries := []string{
		`aggregate [Time.year, URL.TOP]`,
		`aggregate [Time.month, URL.domain_grp]`,
		`aggregate [Time.month, URL.domain_grp] where 2000/2/10 <= Time.day and URL.domain_grp = ".com"`,
	}
	sels := []query.Approach{query.Conservative, query.Liberal, query.Weighted}
	aggs := []query.AggApproach{query.Availability, query.Strict, query.LUB, query.Disaggregated}
	syncAt := caltime.Date(2001, 5, 15)
	for si, srcs := range specs {
		var actions []*spec.Action
		for i, src := range srcs {
			actions = append(actions, spec.MustCompileString(fmt.Sprintf("a%d", i), src, env))
		}
		s, err := spec.New(env, actions...)
		if err != nil {
			t.Fatal(err)
		}
		for _, interpret := range []bool{false, true} {
			synced, err := New(s)
			if err != nil {
				t.Fatal(err)
			}
			synced.SetInterpreted(interpret)
			if err := synced.InsertMO(obj.MO); err != nil {
				t.Fatal(err)
			}
			if _, err := synced.Sync(syncAt); err != nil {
				t.Fatal(err)
			}
			for _, months := range []int64{1, 3, 6, 12, 24, 36} {
				at := caltime.AddSpan(syncAt, caltime.Span{N: months, Unit: caltime.UnitMonth})
				fresh := synced.Clone()
				if _, err := fresh.Sync(at); err != nil {
					t.Fatal(err)
				}
				for _, qsrc := range queries {
					q := MustParseQuery(qsrc, env)
					for _, sel := range sels {
						if q.Pred == nil && sel != query.Conservative {
							continue // selection is the identity
						}
						for _, agg := range aggs {
							q.Sel, q.Agg = sel, agg
							got, err := synced.Evaluate(q, at)
							if err != nil {
								t.Fatal(err)
							}
							want, err := fresh.Evaluate(q, at)
							if err != nil {
								t.Fatal(err)
							}
							approxEqualMO(t, fmt.Sprintf("spec %d, interpreted=%v, %d months stale, %q %v/%v", si, interpret, months, qsrc, sel, agg), got, want)
						}
					}
				}
			}
		}
	}
}
