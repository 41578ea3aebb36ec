package spec

import (
	"strings"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/dims"
	"dimred/internal/mdm"
)

// Paper actions in concrete syntax. The TR's prose writes the upper bound
// of a1 with "<" but its worked figures (Sections 4.3, 4.4) treat it
// inclusively; we encode the bound as "<=", which reproduces the figures.
const (
	srcA1 = `aggregate [Time.month, URL.domain] where URL.domain_grp = ".com" and NOW - 12 months < Time.month and Time.month <= NOW - 6 months`
	srcA2 = `aggregate [Time.quarter, URL.domain] where URL.domain_grp = ".com" and Time.quarter <= NOW - 4 quarters`
	srcA3 = `aggregate [Time.month, URL.domain_grp] where URL.url = "http://www.cnn.com/health" and Time.month <= 1999/12`
	srcA4 = `aggregate [Time.week, URL.url] where URL.url = "http://www.cnn.com/health" and Time.month <= 1999/12`
	srcA7 = `aggregate [Time.month, URL.domain] where Time.month <= NOW - 12 months`
	srcA8 = `aggregate [Time.month, URL.domain] where Time.month <= 1999/12`
)

func paperEnv(t *testing.T) (*dims.PaperObject, *Env) {
	t.Helper()
	p := dims.MustPaperMO()
	env, err := NewEnv(p.Schema, "Time", p.Time)
	if err != nil {
		t.Fatal(err)
	}
	return p, env
}

func day(t *testing.T, s string) caltime.Day {
	t.Helper()
	d, err := caltime.ParseDay(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCompilePaperActions(t *testing.T) {
	_, env := paperEnv(t)
	a1 := MustCompileString("a1", srcA1, env)
	a2 := MustCompileString("a2", srcA2, env)

	if got := a1.DescribeTargets(); got != "(Time.month, URL.domain)" {
		t.Errorf("a1 targets = %s", got)
	}
	if got := a2.DescribeTargets(); got != "(Time.quarter, URL.domain)" {
		t.Errorf("a2 targets = %s", got)
	}
	if !a1.UsesNow() || !a2.UsesNow() {
		t.Error("a1, a2 should use NOW")
	}
	// E02: a1 <=_V a2 and the order is strict.
	if !LessEq(a1, a2) {
		t.Error("a1 <=_V a2 should hold")
	}
	if LessEq(a2, a1) {
		t.Error("a2 <=_V a1 should not hold")
	}
	// a1 has a NOW-relative lower bound: shrinking (category F).
	if a1.Growing() {
		t.Error("a1 should not be growing")
	}
	// a2 has only a growing upper bound (category B).
	if !a2.Growing() {
		t.Error("a2 should be growing")
	}
	// a8 is fixed (category A).
	if !MustCompileString("a8", srcA8, env).Growing() {
		t.Error("a8 should be growing (fixed)")
	}
}

func TestCompileErrors(t *testing.T) {
	_, env := paperEnv(t)
	bad := []struct{ name, src string }{
		{"missing-dim", `aggregate [Time.month] where true`},
		{"unknown-cat", `aggregate [Time.fortnight, URL.domain] where true`},
		{"unknown-dim", `aggregate [Time.month, Shop.name] where true`},
		// Aggregating above the predicate category: predicate on month,
		// aggregation to quarter in the same dimension.
		{"above-pred", `aggregate [Time.quarter, URL.domain] where Time.month <= 1999/12`},
		// Value literal against the time dimension.
		{"time-vs-value", `aggregate [Time.month, URL.domain] where Time.month = "1999/12"`},
		// Time expression against a non-time dimension.
		{"value-vs-time", `aggregate [Time.month, URL.domain] where URL.domain <= 1999/12`},
		// Inequality on an unordered category.
		{"unordered-ineq", `aggregate [Time.month, URL.domain] where URL.domain < "cnn.com"`},
		// Anchored literal of the wrong type.
		{"unit-mismatch", `aggregate [Time.month, URL.domain] where Time.month <= 1999Q4`},
	}
	for _, c := range bad {
		if _, err := CompileString(c.name, c.src, env); err == nil {
			t.Errorf("%s: compile succeeded, want error", c.name)
		}
	}
}

func TestSatisfiedByPaperExample(t *testing.T) {
	// Section 4.2: at 2000/11/5, fact_1 (1999/12/4, www.cnn.com/health)
	// satisfies both a1 and a2.
	p, env := paperEnv(t)
	a1 := MustCompileString("a1", srcA1, env)
	a2 := MustCompileString("a2", srcA2, env)
	now := day(t, "2000/11/5")

	cell := p.MO.Refs(p.Facts[1])
	if !a1.SatisfiedBy(cell, now) {
		t.Error("fact_1 should satisfy a1 at 2000/11/5")
	}
	if !a2.SatisfiedBy(cell, now) {
		t.Error("fact_1 should satisfy a2 at 2000/11/5")
	}
	// fact_6 (2000/1/20, gatech.edu) is .edu: satisfies neither.
	cell6 := p.MO.Refs(p.Facts[6])
	if a1.SatisfiedBy(cell6, now) || a2.SatisfiedBy(cell6, now) {
		t.Error("fact_6 should satisfy neither action")
	}
	// At 2000/4/5, nothing satisfies (Figure 3, first snapshot).
	early := day(t, "2000/4/5")
	for i, f := range p.Facts {
		cell := p.MO.Refs(f)
		if a1.SatisfiedBy(cell, early) || a2.SatisfiedBy(cell, early) {
			t.Errorf("fact_%d satisfied at 2000/4/5", i)
		}
	}
	// At 2000/6/5, the 1999 facts satisfy a1 but not a2 (Figure 3,
	// second snapshot).
	mid := day(t, "2000/6/5")
	for _, i := range []int{0, 1, 2, 3} {
		cell := p.MO.Refs(p.Facts[i])
		if !a1.SatisfiedBy(cell, mid) {
			t.Errorf("fact_%d should satisfy a1 at 2000/6/5", i)
		}
		if a2.SatisfiedBy(cell, mid) {
			t.Errorf("fact_%d should not satisfy a2 at 2000/6/5", i)
		}
	}
	// The 2000 facts satisfy neither at 2000/6/5.
	for _, i := range []int{4, 5, 6} {
		cell := p.MO.Refs(p.Facts[i])
		if a1.SatisfiedBy(cell, mid) || a2.SatisfiedBy(cell, mid) {
			t.Errorf("fact_%d satisfied at 2000/6/5", i)
		}
	}
}

func TestSatisfiedByHigherGranularityCell(t *testing.T) {
	// A cell already aggregated to (quarter, domain) evaluates a2's
	// quarter predicate directly and a1's month predicate conservatively.
	p, env := paperEnv(t)
	a2 := MustCompileString("a2", srcA2, env)
	q4, _ := p.Time.PeriodValue(mustPeriod(t, "1999Q4"))
	cnn, _ := p.URL.ValueByName(p.URL.Domain, "cnn.com")
	cell := []mdm.ValueID{q4, cnn}
	if !a2.SatisfiedBy(cell, day(t, "2000/11/5")) {
		t.Error("aggregated cell should satisfy a2 at 2000/11/5")
	}
	if a2.SatisfiedBy(cell, day(t, "2000/6/5")) {
		t.Error("aggregated cell should not satisfy a2 at 2000/6/5")
	}
}

func mustPeriod(t *testing.T, s string) caltime.Period {
	t.Helper()
	p, err := caltime.ParsePeriod(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPaperA3A4RejectedAtCompile(t *testing.T) {
	// The paper's a3 (Eq. 15) and a4 (Eq. 16) illustrate NonCrossing
	// violations, but as written they already violate the paper's own
	// Section 4.1 convention that the Clist category must not exceed the
	// predicate category (a3 aggregates URL to domain_grp while selecting
	// on URL.url; a4 aggregates Time to week while selecting on
	// Time.month, and week and month are incomparable). The compiler
	// therefore rejects them before any crossing check is needed.
	_, env := paperEnv(t)
	if _, err := CompileString("a3", srcA3, env); err == nil {
		t.Error("a3 should be rejected at compile time")
	}
	if _, err := CompileString("a4", srcA4, env); err == nil {
		t.Error("a4 should be rejected at compile time")
	}
}

func TestNonCrossingViolations(t *testing.T) {
	// Rule-conforming variants of the Section 4.3 counterexamples.
	_, env := paperEnv(t)
	a2 := MustCompileString("a2", srcA2, env)

	// c3 selects and aggregates in ways that cross a2: a2 = (quarter,
	// domain), c3 = (month, domain_grp) — quarter > month but
	// domain < domain_grp — and both select old .com cells.
	c3 := MustCompileString("c3", `aggregate [Time.month, URL.domain_grp] where URL.domain_grp = ".com" and Time.month <= 1999/12`, env)
	if LessEq(a2, c3) || LessEq(c3, a2) {
		t.Error("a2 and c3 should be unordered")
	}
	if err := CheckNonCrossing(env, []*Action{a2, c3}); err == nil {
		t.Error("a2 vs c3 crossing not detected")
	}

	// c4 aggregates into the parallel Time branch (week vs a2's
	// quarter), the paper's second counterexample.
	c4 := MustCompileString("c4", `aggregate [Time.week, URL.domain] where URL.domain_grp = ".com" and Time.week <= 1999W52`, env)
	if LessEq(a2, c4) || LessEq(c4, a2) {
		t.Error("a2 and c4 should be unordered")
	}
	if err := CheckNonCrossing(env, []*Action{a2, c4}); err == nil {
		t.Error("a2 vs c4 crossing (parallel hierarchies) not detected")
	}
	// Each alone is fine.
	if err := CheckNonCrossing(env, []*Action{c3}); err != nil {
		t.Errorf("single action rejected: %v", err)
	}
}

func TestNonCrossingDisjointPredicates(t *testing.T) {
	// Unordered targets but predicates that can never overlap: the .com
	// and .edu restrictions make the actions compatible.
	_, env := paperEnv(t)
	com := MustCompileString("com", `aggregate [Time.quarter, URL.domain] where URL.domain_grp = ".com" and Time.quarter <= NOW - 4 quarters`, env)
	edu := MustCompileString("edu", `aggregate [Time.month, URL.domain_grp] where URL.domain_grp = ".edu" and Time.month <= 1999/12`, env)
	if LessEq(com, edu) || LessEq(edu, com) {
		t.Error("com and edu should be unordered")
	}
	if err := CheckNonCrossing(env, []*Action{com, edu}); err != nil {
		t.Errorf("disjoint unordered actions rejected: %v", err)
	}
}

func TestGrowingViolationFigure2(t *testing.T) {
	// E05: {a1} alone violates Growing (fact_0 would be reclaimed when
	// the window's lower bound passes it); adding a2 repairs it.
	_, env := paperEnv(t)
	a1 := MustCompileString("a1", srcA1, env)
	a2 := MustCompileString("a2", srcA2, env)

	err := CheckGrowing(env, []*Action{a1})
	if err == nil {
		t.Fatal("spec {a1} should violate Growing")
	}
	if !strings.Contains(err.Error(), "a1") {
		t.Errorf("error should name a1: %v", err)
	}
	if err := CheckGrowing(env, []*Action{a1, a2}); err != nil {
		t.Errorf("spec {a1, a2} should be Growing: %v", err)
	}
	// And it is NonCrossing (the actions are ordered).
	if err := CheckNonCrossing(env, []*Action{a1, a2}); err != nil {
		t.Errorf("spec {a1, a2} should be NonCrossing: %v", err)
	}
}

func TestGrowingSection53Example(t *testing.T) {
	// E11: Eq. 24-26. b1 aggregates everything younger than 4 years to
	// (month, domain); b2 catches old .com data, b3 catches old .edu
	// data. Together they are Growing because .com and .edu exhaust the
	// URL domain groups — exactly the domain knowledge the paper's
	// theorem prover needs (Eq. 29).
	_, env := paperEnv(t)
	b1 := MustCompileString("b1", `aggregate [Time.month, URL.domain] where NOW - 4 years < Time.year and Time.year < NOW`, env)
	b2 := MustCompileString("b2", `aggregate [Time.quarter, URL.domain] where Time.year <= NOW - 4 years and URL.domain_grp = ".com"`, env)
	b3 := MustCompileString("b3", `aggregate [Time.quarter, URL.domain_grp] where Time.year <= NOW - 4 years and URL.domain_grp = ".edu"`, env)

	if b1.Growing() {
		t.Error("b1 has a moving lower bound and is not growing by itself")
	}
	if !b2.Growing() || !b3.Growing() {
		t.Error("b2 and b3 are growing")
	}
	if err := CheckGrowing(env, []*Action{b1, b2, b3}); err != nil {
		t.Errorf("Eq. 24-26 spec should be Growing: %v", err)
	}
	// Without b3 the .edu cells escape b1 uncovered (Eq. 29 fails).
	if err := CheckGrowing(env, []*Action{b1, b2}); err == nil {
		t.Error("dropping b3 should violate Growing")
	}
	if err := CheckNonCrossing(env, []*Action{b1, b2, b3}); err != nil {
		t.Errorf("Eq. 24-26 spec should be NonCrossing: %v", err)
	}
}

func TestSpecInsert(t *testing.T) {
	_, env := paperEnv(t)
	a1 := MustCompileString("a1", srcA1, env)
	a2 := MustCompileString("a2", srcA2, env)

	// Inserting a1 alone is rejected (Growing), the spec is unchanged.
	s := Empty(env)
	if err := s.Insert(a1); err == nil {
		t.Fatal("Insert(a1) alone should be rejected")
	}
	if len(s.Actions()) != 0 {
		t.Fatal("rejected insert modified the spec")
	}
	// Inserting both together succeeds (Definition 3 inserts sets).
	if err := s.Insert(a1, a2); err != nil {
		t.Fatalf("Insert(a1, a2): %v", err)
	}
	if len(s.Actions()) != 2 {
		t.Fatal("insert did not commit")
	}
	// Duplicate names are rejected.
	dup := MustCompileString("a1", srcA8, env)
	if err := s.Insert(dup); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, ok := s.ActionByName("a2"); !ok {
		t.Error("ActionByName(a2) failed")
	}
	if _, ok := s.ActionByName("zzz"); ok {
		t.Error("ActionByName(zzz) found something")
	}
}

func TestSpecDeleteA7A8Example(t *testing.T) {
	// Section 5.1's NOW-relative handling example: insert a8 (fixed),
	// then a7 (NOW-relative) can be deleted during month 2000/12 because
	// a8 aggregates the exact same facts to the same level.
	p, env := paperEnv(t)
	a7 := MustCompileString("a7", srcA7, env)
	s, err := New(env, a7)
	if err != nil {
		t.Fatal(err)
	}
	now := day(t, "2000/12/15")

	// Deleting a7 alone is rejected: it is responsible for the 1999
	// facts (their cells satisfy it, no substitute exists).
	if err := s.Delete(p.MO, now, "a7"); err == nil {
		t.Fatal("Delete(a7) without substitute should be rejected")
	}
	a8 := MustCompileString("a8", srcA8, env)
	if err := s.Insert(a8); err != nil {
		t.Fatalf("Insert(a8): %v", err)
	}
	if err := s.Delete(p.MO, now, "a7"); err != nil {
		t.Fatalf("Delete(a7) after inserting a8: %v", err)
	}
	if _, ok := s.ActionByName("a7"); ok {
		t.Error("a7 still present")
	}
	if _, ok := s.ActionByName("a8"); !ok {
		t.Error("a8 removed")
	}
	// Deleting an unknown action fails.
	if err := s.Delete(p.MO, now, "nope"); err == nil {
		t.Error("unknown delete accepted")
	}
	// A NOW-relative substitute is judged at the same instant: a9 selects
	// every fact a7 does at now.
	a9 := MustCompileString("a9", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 11 months`, env)
	if s, err = New(env, a7, a9); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(p.MO, now, "a7"); err != nil {
		t.Errorf("Delete(a7) beside a9: %v", err)
	}
}

func TestSpecDeleteKeepsGrowing(t *testing.T) {
	// Deleting the covering action of a non-growing action must be
	// rejected even if it is not responsible for any current fact.
	_, env := paperEnv(t)
	a1 := MustCompileString("a1", srcA1, env)
	a2 := MustCompileString("a2", srcA2, env)
	s, err := New(env, a1, a2)
	if err != nil {
		t.Fatal(err)
	}
	// Before any fact matches (early time), a2 is not responsible for
	// anything, but removing it would leave {a1}, which shrinks.
	empty := mdm.NewMO(env.Schema)
	if err := s.Delete(empty, day(t, "2000/1/1"), "a2"); err == nil {
		t.Error("deleting the covering action should be rejected")
	}
}

func TestAggLevelSnapshots(t *testing.T) {
	// AggLevel per Figure 3: at 2000/6/5 the 1999 facts are at (month,
	// domain); at 2000/11/5 they are at (quarter, domain).
	p, env := paperEnv(t)
	a1 := MustCompileString("a1", srcA1, env)
	a2 := MustCompileString("a2", srcA2, env)
	s, err := New(env, a1, a2)
	if err != nil {
		t.Fatal(err)
	}

	cell := p.MO.Refs(p.Facts[1])
	lvl, resp := s.AggLevel(cell, day(t, "2000/6/5"))
	if got := env.Schema.GranString(lvl); got != "(Time.month, URL.domain)" {
		t.Errorf("AggLevel @2000/6/5 = %s", got)
	}
	if resp[0] != a1 || resp[1] != a1 {
		t.Errorf("responsible = %v, want a1", resp)
	}
	lvl, resp = s.AggLevel(cell, day(t, "2000/11/5"))
	if got := env.Schema.GranString(lvl); got != "(Time.quarter, URL.domain)" {
		t.Errorf("AggLevel @2000/11/5 = %s", got)
	}
	if resp[0] != a2 {
		t.Errorf("responsible for time = %v, want a2", resp[0])
	}
	// Untouched fact: bottom granularity, nobody responsible.
	lvl, resp = s.AggLevel(p.MO.Refs(p.Facts[6]), day(t, "2000/11/5"))
	if got := env.Schema.GranString(lvl); got != "(Time.day, URL.url)" {
		t.Errorf("fact_6 AggLevel = %s", got)
	}
	if resp[0] != nil || resp[1] != nil {
		t.Error("fact_6 should have no responsible action")
	}
}

func TestAggLevelMonotoneOverTime(t *testing.T) {
	// Property (Eq. 17): for a valid spec, AggLevel never decreases as
	// time passes, for any fact cell.
	p, env := paperEnv(t)
	a1 := MustCompileString("a1", srcA1, env)
	a2 := MustCompileString("a2", srcA2, env)
	s, err := New(env, a1, a2)
	if err != nil {
		t.Fatal(err)
	}
	start := day(t, "2000/1/1")
	for _, f := range p.Facts {
		cell := p.MO.Refs(f)
		prev, _ := s.AggLevel(cell, start)
		for d := start + 7; d < start+800; d += 7 {
			cur, _ := s.AggLevel(cell, d)
			for i := range cur {
				if !env.Schema.Dims[i].CatLE(prev[i], cur[i]) {
					t.Fatalf("AggLevel decreased for %s in dim %d between %v and %v",
						p.MO.Name(f), i, d-7, d)
				}
			}
			prev = cur
		}
	}
}

func TestEnvErrors(t *testing.T) {
	p, _ := paperEnv(t)
	if _, err := NewEnv(p.Schema, "Nope", p.Time); err == nil {
		t.Error("unknown time dimension accepted")
	}
	if _, err := NewEnv(p.Schema, "Time", nil); err == nil {
		t.Error("nil TimeModel accepted")
	}
	env, err := NewEnv(p.Schema, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Without a time dimension, time-typed predicates fail to compile.
	if _, err := CompileString("x", srcA8, env); err == nil {
		t.Error("time predicate without time dimension accepted")
	}
}

func TestHorizonIncludesAnchors(t *testing.T) {
	_, env := paperEnv(t)
	// An anchored literal far outside the populated range must widen the
	// horizon so checks see it.
	a := MustCompileString("far", `aggregate [Time.month, URL.domain] where Time.month <= 1990/6`, env)
	hz, ok := env.Horizon([]*Action{a})
	if !ok {
		t.Fatal("no horizon")
	}
	if hz.Min > day(t, "1990/6/1") {
		t.Errorf("horizon min %v does not include the anchor", hz.Min)
	}
}
