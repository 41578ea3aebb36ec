package spec

import (
	"strings"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
)

// orderedEnv builds a schema with an ordered non-time dimension (Price
// bands keyed by their ordinal) plus a time dimension, to exercise the
// value-comparison operators the paper's URL dimension cannot.
func orderedEnv(t *testing.T) (*Env, *mdm.Dimension, map[string]mdm.ValueID) {
	t.Helper()
	p, _ := paperEnv(t)
	price := mdm.NewDimension("Price")
	band := price.MustAddCategory("band", true)
	tier := price.MustAddCategory("tier", false)
	if err := price.Contains(band, tier); err != nil {
		t.Fatal(err)
	}
	price.MustFinalize()
	vals := map[string]mdm.ValueID{}
	lo := price.MustAddValue(tier, "low", 0, nil)
	hi := price.MustAddValue(tier, "high", 0, nil)
	for i, n := range []string{"b0", "b1", "b2", "b3"} {
		parent := lo
		if i >= 2 {
			parent = hi
		}
		vals[n] = price.MustAddValue(band, n, int64(i), map[mdm.CategoryID]mdm.ValueID{tier: parent})
	}
	schema, err := mdm.NewSchema("Sale", []*mdm.Dimension{p.Time.Dimension, price},
		[]mdm.Measure{{Name: "amount", Agg: mdm.AggSum}})
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(schema, "Time", p.Time)
	if err != nil {
		t.Fatal(err)
	}
	// Ensure at least one day exists.
	p.Time.EnsureDay(caltime.Date(2000, 1, 1))
	return env, price, vals
}

func TestOrderedValueComparisons(t *testing.T) {
	env, price, vals := orderedEnv(t)
	a := MustCompileString("cheap",
		`aggregate [Time.month, Price.band] where Price.band < "b2" and Time.month <= NOW - 1 month`, env)
	td := env.Schema.Dims[0]
	dayVal := td.ValuesIn(td.Bottom())[0]
	at := caltime.Date(2000, 6, 1)

	if !a.SatisfiedBy([]mdm.ValueID{dayVal, vals["b1"]}, at) {
		t.Error("b1 < b2 should satisfy")
	}
	if a.SatisfiedBy([]mdm.ValueID{dayVal, vals["b2"]}, at) {
		t.Error("b2 < b2 should not satisfy")
	}
	// The remaining ordered operators.
	cases := []struct {
		src  string
		band string
		want bool
	}{
		{`Price.band <= "b2"`, "b2", true},
		{`Price.band <= "b2"`, "b3", false},
		{`Price.band >= "b2"`, "b2", true},
		{`Price.band >= "b2"`, "b1", false},
		{`Price.band > "b2"`, "b3", true},
		{`Price.band > "b2"`, "b2", false},
		{`Price.band != "b2"`, "b1", true},
		{`Price.band != "b2"`, "b2", false},
		{`Price.band in {"b0", "b3"}`, "b3", true},
		{`Price.band in {"b0", "b3"}`, "b1", false},
		{`Price.band not in {"b0", "b3"}`, "b1", true},
		{`Price.band not in {"b0", "b3"}`, "b0", false},
		// Comparison against an unknown operand satisfies nothing.
		{`Price.band < "zz"`, "b0", false},
	}
	for _, cc := range cases {
		a := MustCompileString("x", `aggregate [Time.month, Price.band] where `+cc.src, env)
		got := a.SatisfiedBy([]mdm.ValueID{dayVal, vals[cc.band]}, at)
		if got != cc.want {
			t.Errorf("%s on %s = %v, want %v", cc.src, cc.band, got, cc.want)
		}
	}
	_ = price
}

func TestTimeInPredicate(t *testing.T) {
	p, env := paperEnv(t)
	a := MustCompileString("pick",
		`aggregate [Time.quarter, URL.domain] where Time.quarter in {1999Q4} and URL.domain_grp = ".com"`, env)
	at := day(t, "2000/11/5")
	if !a.SatisfiedBy(p.MO.Refs(p.Facts[0]), at) {
		t.Error("fact_0 (1999Q4) should satisfy the in-set")
	}
	if a.SatisfiedBy(p.MO.Refs(p.Facts[4]), at) {
		t.Error("fact_4 (2000Q1) should not satisfy the in-set")
	}
	n := MustCompileString("skip",
		`aggregate [Time.quarter, URL.domain] where Time.quarter not in {1999Q4} and URL.domain_grp = ".com"`, env)
	if n.SatisfiedBy(p.MO.Refs(p.Facts[0]), at) {
		t.Error("fact_0 should fail the not-in-set")
	}
	if !n.SatisfiedBy(p.MO.Refs(p.Facts[4]), at) {
		t.Error("fact_4 should satisfy the not-in-set")
	}
	// NOW-relative membership: quarter in {NOW - 4 quarters}.
	rel := MustCompileString("rel",
		`aggregate [Time.quarter, URL.domain] where Time.quarter in {NOW - 4 quarters} and URL.domain_grp = ".com"`, env)
	if !rel.SatisfiedBy(p.MO.Refs(p.Facts[0]), at) {
		t.Error("1999Q4 = 2000Q4 - 4 should satisfy at 2000/11/5")
	}
	if rel.Growing() {
		t.Error("NOW-relative membership is a moving window: not growing")
	}
}

// TestTimeHullBoundsEverySatisfiedDay: the subcube engine skips a cube
// at t when its days lie outside TimeHullAt(t), so every day an action
// satisfies at t must lie inside the hull — NOW-relative membership
// included.
func TestTimeHullBoundsEverySatisfiedDay(t *testing.T) {
	p, env := paperEnv(t)
	url := p.MO.Refs(p.Facts[0])[1]
	at := day(t, "2000/11/5")
	first := at - 500
	var days []mdm.ValueID
	for d := first; d <= at+60; d++ {
		days = append(days, p.Time.EnsureDay(d))
	}
	for _, src := range []string{
		`Time.month <= NOW - 2 months`,
		`Time.month in {NOW - 1 month, NOW - 3 months}`,
		`Time.quarter = NOW - 1 quarter`,
		`Time.day > NOW - 30 days and Time.day < NOW`,
	} {
		a := MustCompileString("h", `aggregate [Time.day, URL.domain] where `+src, env)
		lo, hi, bounded := a.TimeHullAt(at)
		if !bounded {
			t.Errorf("%s: hull unbounded", src)
			continue
		}
		n := 0
		for i, v := range days {
			if !a.SatisfiedBy([]mdm.ValueID{v, url}, at) {
				continue
			}
			n++
			if d := first + caltime.Day(i); d < lo || d > hi {
				t.Errorf("%s: %s is satisfied at %s but outside the hull [%s, %s]", src, d, at, lo, hi)
				break
			}
		}
		if n == 0 {
			t.Errorf("%s: no day satisfied at %s", src, at)
		}
	}
}

// TestTimeTestOnCoarserCellWalksDescendants: a cell coarser than a time
// test's category satisfies it only when every populated descendant
// does, each judged at the evaluation time.
func TestTimeTestOnCoarserCellWalksDescendants(t *testing.T) {
	p, env := paperEnv(t)
	td := env.Schema.Dims[0]
	monthCat, _ := td.CategoryByName("month")
	refs := p.MO.Refs(p.Facts[1]) // 1999/12/4
	cell := []mdm.ValueID{td.AncestorAt(refs[0], monthCat), refs[1]}
	a := MustCompileString("d", `aggregate [Time.day, URL.domain] where Time.day <= NOW - 10 days`, env)
	if !a.SatisfiedBy(cell, day(t, "2000/11/5")) {
		t.Error("1999/12 lies wholly before 2000/10/26: the month cell must satisfy")
	}
	if a.SatisfiedBy(cell, day(t, "1999/12/10")) {
		t.Error("1999/12/4 is after 1999/11/30: the month cell must not satisfy")
	}
}

func TestTimeEqualityAndNE(t *testing.T) {
	p, env := paperEnv(t)
	at := day(t, "2000/11/5")
	eq := MustCompileString("eq",
		`aggregate [Time.month, URL.domain] where Time.month = 1999/12`, env)
	if !eq.SatisfiedBy(p.MO.Refs(p.Facts[1]), at) {
		t.Error("fact_1 (1999/12/4) should satisfy month = 1999/12")
	}
	if eq.SatisfiedBy(p.MO.Refs(p.Facts[0]), at) {
		t.Error("fact_0 (1999/11/23) should not satisfy month = 1999/12")
	}
	ne := MustCompileString("ne",
		`aggregate [Time.month, URL.domain] where Time.month != 1999/12`, env)
	if ne.SatisfiedBy(p.MO.Refs(p.Facts[1]), at) || !ne.SatisfiedBy(p.MO.Refs(p.Facts[0]), at) {
		t.Error("!= semantics wrong")
	}
	ge := MustCompileString("ge",
		`aggregate [Time.month, URL.domain] where Time.month >= 2000/1 and Time.month <= 2000/1`, env)
	if !ge.SatisfiedBy(p.MO.Refs(p.Facts[4]), at) || ge.SatisfiedBy(p.MO.Refs(p.Facts[1]), at) {
		t.Error(">= semantics wrong")
	}
	lt := MustCompileString("lt",
		`aggregate [Time.day, URL.url] where Time.day < 1999/12/4`, env)
	if !lt.SatisfiedBy(p.MO.Refs(p.Facts[0]), at) || lt.SatisfiedBy(p.MO.Refs(p.Facts[1]), at) {
		t.Error("< semantics wrong")
	}
}

func TestActionAccessors(t *testing.T) {
	_, env := paperEnv(t)
	a := MustCompileString("a1", srcA1, env)
	if len(a.Target()) != 2 {
		t.Error("Target")
	}
	if a.TargetIn(1) != a.Target()[1] {
		t.Error("TargetIn")
	}
	if a.String() == "" || a.Name() != "a1" {
		t.Error("String/Name")
	}
	// a1 has two NOW-relative month bounds; both report their unit
	// (SignificantPeriod de-duplicates).
	units := a.NowUnits(nil)
	if len(units) == 0 {
		t.Error("NowUnits empty")
	}
	for _, u := range units {
		if u != caltime.UnitMonth {
			t.Errorf("NowUnits = %v", units)
		}
	}
	if env != a.env {
		t.Error("env binding")
	}
	s, err := New(env, a, MustCompileString("a2", srcA2, env))
	if err != nil {
		t.Fatal(err)
	}
	if s.Env() != env {
		t.Error("Spec.Env")
	}
}

func TestSignificantPeriod(t *testing.T) {
	_, env := paperEnv(t)
	for _, tc := range []struct {
		name    string
		actions []string
		want    caltime.Unit
		ok      bool
	}{
		// The paper's example: NOW at month and quarter granularity →
		// synchronize once per quarter.
		{"month and quarter", []string{srcA1, srcA2}, caltime.UnitQuarter, true},
		// A single NOW unit gives that unit.
		{"month only", []string{srcA7}, caltime.UnitMonth, true},
		// Three units: the second-lowest, however the actions are ordered.
		{"year, month, quarter", []string{
			`aggregate [Time.year, URL.domain] where URL.domain_grp = ".com" and Time.year <= NOW - 3 years`,
			srcA1, srcA2,
		}, caltime.UnitQuarter, true},
		// No NOW usage: time passage never un-synchronizes.
		{"fixed", []string{srcA8}, 0, false},
		{"empty", nil, 0, false},
	} {
		var actions []*Action
		for i, src := range tc.actions {
			actions = append(actions, MustCompileString([]string{"x1", "x2", "x3"}[i], src, env))
		}
		s, err := New(env, actions...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if u, ok := s.SignificantPeriod(); ok != tc.ok || u != tc.want {
			t.Errorf("%s: period = %v, %v; want %v, %v", tc.name, u, ok, tc.want, tc.ok)
		}
	}
}

func TestDisjunctivePredicates(t *testing.T) {
	// An OR predicate splits into disjuncts (the Section 5.3
	// pre-processing); satisfaction is the union.
	p, env := paperEnv(t)
	a := MustCompileString("either",
		`aggregate [Time.month, URL.domain] where (URL.domain = "cnn.com" and Time.month <= 1999/12) or (URL.domain = "gatech.edu" and Time.month <= 2000/1)`, env)
	at := day(t, "2000/11/5")
	if !a.SatisfiedBy(p.MO.Refs(p.Facts[1]), at) { // cnn 1999/12
		t.Error("first disjunct should fire")
	}
	if !a.SatisfiedBy(p.MO.Refs(p.Facts[6]), at) { // gatech 2000/1
		t.Error("second disjunct should fire")
	}
	if a.SatisfiedBy(p.MO.Refs(p.Facts[4]), at) { // cnn 2000/1
		t.Error("neither disjunct should fire for fact_4")
	}
	if len(a.Regions()) != 2 {
		t.Errorf("regions = %d, want 2", len(a.Regions()))
	}
}

func TestExplain(t *testing.T) {
	p, env := paperEnv(t)
	s, err := New(env,
		MustCompileString("a1", srcA1, env),
		MustCompileString("a2", srcA2, env),
		MustCompileString("purge", `delete where Time.year <= NOW - 20 years`, env))
	if err != nil {
		t.Fatal(err)
	}
	out := s.Explain(p.MO.Refs(p.Facts[1]), day(t, "2000/11/5"))
	for _, want := range []string{"Time -> quarter (by action a2)", "URL -> domain", "satisfies a1", "satisfies a2"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// A fresh fact explains as own granularity.
	out = s.Explain(p.MO.Refs(p.Facts[6]), day(t, "2000/11/5"))
	if !strings.Contains(out, "own granularity") {
		t.Errorf("Explain:\n%s", out)
	}
	// A deleted cell explains the deletion.
	out = s.Explain(p.MO.Refs(p.Facts[0]), day(t, "2025/1/1"))
	if !strings.Contains(out, "physically deleted by action purge") {
		t.Errorf("Explain:\n%s", out)
	}
}

func TestCheckGrowingExhaustiveAgrees(t *testing.T) {
	_, env := paperEnv(t)
	a1 := MustCompileString("a1", srcA1, env)
	a2 := MustCompileString("a2", srcA2, env)
	if err := CheckGrowingExhaustive(env, []*Action{a1, a2}); err != nil {
		t.Errorf("exhaustive check rejected a valid spec: %v", err)
	}
	if err := CheckGrowingExhaustive(env, []*Action{a1}); err == nil {
		t.Error("exhaustive check accepted an invalid spec")
	}
}
