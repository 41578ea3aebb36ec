package subcube

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/core"
	"dimred/internal/dims"
	"dimred/internal/mdm"
	"dimred/internal/query"
	"dimred/internal/spec"
)

func day(t *testing.T, s string) caltime.Day {
	t.Helper()
	d, err := caltime.ParseDay(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// section71Spec is the Section 7.1 example: a1 and a2 of the running
// example plus a3 = α[week, domain] σ[domain = gatech.edu ∧ week <=
// NOW - 36 weeks]. Its subcubes are a_bottom (day, url), (month,
// domain), (quarter, domain) and (week, domain).
func section71Spec(t *testing.T) (*dims.PaperObject, *spec.Spec) {
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
	a3 := spec.MustCompileString("a3",
		`aggregate [Time.week, URL.domain] where URL.domain = "gatech.edu" and Time.week <= NOW - 36 weeks`, env)
	s, err := spec.New(env, a1, a2, a3)
	if err != nil {
		t.Fatal(err)
	}
	return p, s
}

func TestE12DisjointLayoutAndDAG(t *testing.T) {
	_, s := section71Spec(t)
	cs, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Cubes()) != 4 {
		t.Fatalf("cubes = %d, want 4 (bottom + 3 granularities)", len(cs.Cubes()))
	}
	byGran := map[string]*Cube{}
	for _, c := range cs.Cubes() {
		byGran[s.Env().Schema.GranString(c.Gran())] = c
	}
	bottom := byGran["(Time.day, URL.url)"]
	month := byGran["(Time.month, URL.domain)"]
	quarter := byGran["(Time.quarter, URL.domain)"]
	week := byGran["(Time.week, URL.domain)"]
	if bottom == nil || month == nil || quarter == nil || week == nil {
		t.Fatalf("missing cube granularities: %v", byGran)
	}
	if len(bottom.Actions()) != 0 {
		t.Error("bottom cube should have no actions")
	}
	// Section 7.1: "All new data enters into a_bottom which is the parent
	// of both a1' and a3, while a1' is the parent of a2."
	parentIDs := func(c *Cube) []int {
		var ids []int
		for _, p := range c.Parents() {
			ids = append(ids, p.ID())
		}
		sort.Ints(ids)
		return ids
	}
	if got := parentIDs(month); len(got) != 1 || got[0] != bottom.ID() {
		t.Errorf("month cube parents = %v", got)
	}
	if got := parentIDs(week); len(got) != 1 || got[0] != bottom.ID() {
		t.Errorf("week cube parents = %v", got)
	}
	wantQ := []int{bottom.ID(), month.ID()}
	sort.Ints(wantQ)
	if got := parentIDs(quarter); fmt.Sprint(got) != fmt.Sprint(wantQ) {
		t.Errorf("quarter cube parents = %v, want %v", got, wantQ)
	}
	// The description names the excluded higher action (Eq. 41's
	// transformed predicate excludes a2's region from a1's cube).
	desc := cs.Describe()
	if !strings.Contains(desc, "exclude a2") {
		t.Errorf("Describe missing exclusion:\n%s", desc)
	}
	if !strings.Contains(desc, "[bottom]") {
		t.Errorf("Describe missing bottom marker:\n%s", desc)
	}
}

func TestInsertValidation(t *testing.T) {
	p, s := section71Spec(t)
	cs, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	// Non-bottom insert rejected.
	q4, _ := p.Time.PeriodValue(mustPeriod(t, "1999Q4"))
	cnn, _ := p.URL.ValueByName(p.URL.Domain, "cnn.com")
	if err := cs.Insert([]mdm.ValueID{q4, cnn}, []float64{1, 1, 1, 1}); err == nil {
		t.Error("non-bottom insert accepted")
	}
	if err := cs.Insert([]mdm.ValueID{q4}, []float64{1}); err == nil {
		t.Error("short row accepted")
	}
	if err := cs.InsertMO(p.MO); err != nil {
		t.Fatal(err)
	}
	if cs.TotalRows() != 7 || cs.Cubes()[0].Rows() != 7 {
		t.Errorf("rows = %d (bottom %d)", cs.TotalRows(), cs.Cubes()[0].Rows())
	}
	if cs.TotalBytes() == 0 {
		t.Error("TotalBytes = 0")
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

// figure78Setup builds the Figure 7/8 configuration: the running
// example's facts plus fact_7 (2000/5/7, cnn health), fact_8 (2000/7/8,
// gatech), fact_9 (2000/1/10, amazon) and fact_10 (2000/4/12, cnn), over
// the spec {cA: cnn 6-12 months → (month, domain), cB: amazon 6-12
// months → (month, url), cC: old .com → (quarter, domain_grp), cD: old
// gatech → (week, domain)}.
func figure78Setup(t *testing.T) (*dims.PaperObject, *spec.Spec, *CubeSet) {
	t.Helper()
	p := dims.MustPaperMO()
	env, err := spec.NewEnv(p.Schema, "Time", p.Time)
	if err != nil {
		t.Fatal(err)
	}
	cA := spec.MustCompileString("cA",
		`aggregate [Time.month, URL.domain] where URL.domain = "cnn.com" and NOW - 4 quarters < Time.quarter and Time.month <= NOW - 6 months`, env)
	cB := spec.MustCompileString("cB",
		`aggregate [Time.month, URL.url] where URL.domain = "amazon.com" and NOW - 4 quarters < Time.quarter and Time.month <= NOW - 6 months`, env)
	cC := spec.MustCompileString("cC",
		`aggregate [Time.quarter, URL.domain_grp] where URL.domain_grp = ".com" and Time.quarter <= NOW - 4 quarters`, env)
	cD := spec.MustCompileString("cD",
		`aggregate [Time.week, URL.domain] where URL.domain = "gatech.edu" and Time.week <= NOW - 36 weeks`, env)
	s, err := spec.New(env, cA, cB, cC, cD)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.InsertMO(p.MO); err != nil {
		t.Fatal(err)
	}
	extra := []struct {
		day, url string
		dwell    float64
	}{
		{"2000/5/7", "http://www.cnn.com/health", 100}, // fact_7
		{"2000/7/8", "http://www.cc.gatech.edu/", 200}, // fact_8
		{"2000/1/10", dims.PaperURLs[3], 300},          // fact_9 (amazon)
		{"2000/4/12", "http://www.cnn.com/", 400},      // fact_10
	}
	for _, e := range extra {
		dv := p.Time.EnsureDay(day(t, e.day))
		uv := p.URL.MustEnsureURL(e.url)
		if err := cs.Insert([]mdm.ValueID{dv, uv}, []float64{1, e.dwell, 1, 10}); err != nil {
			t.Fatal(err)
		}
	}
	return p, s, cs
}

// cubeCells renders a cube's rows as "cell|measures" lines.
func cubeCells(t *testing.T, schema *mdm.Schema, c *Cube) []string {
	t.Helper()
	mo, err := c.MO(schema)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for f := 0; f < mo.Len(); f++ {
		fid := mdm.FactID(f)
		out = append(out, fmt.Sprintf("%s | dwell=%v", mo.CellString(fid), mo.Measure(fid, 1)))
	}
	sort.Strings(out)
	return out
}

func TestE13SynchronizationFigure7(t *testing.T) {
	p, s, cs := figure78Setup(t)
	schema := s.Env().Schema

	// Synchronize at 2000/12/5 (Figure 7, upper half).
	if _, err := cs.Sync(day(t, "2000/12/5")); err != nil {
		t.Fatal(err)
	}
	byGran := map[string]*Cube{}
	for _, c := range cs.Cubes() {
		byGran[schema.GranString(c.Gran())] = c
	}
	k1 := byGran["(Time.month, URL.domain)"]
	k2 := byGran["(Time.quarter, URL.domain_grp)"]
	k4 := byGran["(Time.month, URL.url)"]

	// K2 holds the merged 1999 facts: one row (1999Q4, .com).
	k2Cells := cubeCells(t, schema, k2)
	if len(k2Cells) != 1 || !strings.HasPrefix(k2Cells[0], "1999Q4, .com") {
		t.Errorf("K2 = %v", k2Cells)
	}
	// K1 holds cnn facts 6-12 months old: (2000/1, cnn.com) from
	// fact_4+fact_5, (2000/4, cnn.com) from fact_10, and (2000/5,
	// cnn.com) from fact_7 (7 months old at 2000/12/5).
	k1Cells := cubeCells(t, schema, k1)
	if len(k1Cells) != 3 {
		t.Errorf("K1 = %v", k1Cells)
	}
	// K4 holds the amazon fact_9 at (2000/1, url).
	k4Cells := cubeCells(t, schema, k4)
	if len(k4Cells) != 1 || !strings.Contains(k4Cells[0], "2000/1, http://www.amazon.com") {
		t.Errorf("K4 = %v", k4Cells)
	}

	// One month later (Figure 7, lower half): fact_45 and fact_9 migrate
	// into K2 and merge as fact_459 (2000Q1, .com).
	moved, err := cs.Sync(day(t, "2001/1/5"))
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Error("nothing migrated")
	}
	k2Cells = cubeCells(t, schema, k2)
	if len(k2Cells) != 2 {
		t.Fatalf("K2 after month = %v", k2Cells)
	}
	found := false
	for _, c := range k2Cells {
		// fact_459 = fact_4 + fact_5 + fact_9: dwell 654+301+300 = 1255.
		if strings.HasPrefix(c, "2000Q1, .com") && strings.Contains(c, "dwell=1255") {
			found = true
		}
	}
	if !found {
		t.Errorf("fact_459 missing from K2: %v", k2Cells)
	}
	if len(cubeCells(t, schema, k4)) != 0 {
		t.Error("K4 should be empty after migration")
	}
	// fact_10 (2000/4) remains in K1.
	k1Cells = cubeCells(t, schema, k1)
	joined := strings.Join(k1Cells, "\n")
	if !strings.Contains(joined, "2000/4, cnn.com") {
		t.Errorf("K1 lost fact_10: %v", k1Cells)
	}
	_ = p
}

// canon renders an MO's facts as sorted "cell|measures" lines, ignoring
// fact names, so results from different engines can be compared.
func canon(mo *mdm.MO) string {
	var lines []string
	for f := 0; f < mo.Len(); f++ {
		fid := mdm.FactID(f)
		var b strings.Builder
		b.WriteString(mo.CellString(fid))
		for j := range mo.Schema().Measures {
			fmt.Fprintf(&b, " | %v", mo.Measure(fid, j))
		}
		lines = append(lines, b.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func TestE14QueryPlanFigure8(t *testing.T) {
	// Figure 8: Q = α[month, domain_grp](σ[1999/6 < month <= 2000/5](O))
	// over the five synchronized subcubes at 2000/10/20.
	_, s, cs := figure78Setup(t)
	at := day(t, "2000/10/20")
	if _, err := cs.Sync(at); err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(
		`aggregate [Time.month, URL.domain_grp] where 1999/6 < Time.month and Time.month <= 2000/5`, s.Env())
	res, err := cs.Evaluate(q, at)
	if err != nil {
		t.Fatal(err)
	}
	// Expected S5: fact_0312 (1999Q4, .com), fact_459 (2000/1, .com),
	// fact_10 (2000/4, .com), fact_7 (2000/5, .com), fact_6 (2000/1,
	// .edu); fact_8 (2000/7) is excluded by the selection.
	want := map[string]float64{
		"1999Q4, .com": 677 + 2335 + 154 + 12, // 3178
		"2000/1, .com": 654 + 301 + 300,       // fact_45 + fact_9 = 1255
		"2000/4, .com": 400,
		"2000/5, .com": 100,
		"2000/1, .edu": 32,
	}
	if res.Len() != len(want) {
		t.Fatalf("result has %d facts, want %d:\n%s", res.Len(), len(want), res.Dump())
	}
	for f := 0; f < res.Len(); f++ {
		fid := mdm.FactID(f)
		cell := res.CellString(fid)
		w, ok := want[cell]
		if !ok {
			t.Errorf("unexpected result cell %q", cell)
			continue
		}
		if got := res.Measure(fid, 1); got != w {
			t.Errorf("cell %q dwell = %v, want %v", cell, got, w)
		}
	}
}

func TestE15UnsynchronizedQueryFigure9(t *testing.T) {
	// Figure 9: the cubes were last synchronized at 2000/10/20; the
	// query runs at 2001/1/20. The un-synchronized evaluation must match
	// what a fresh synchronization would produce.
	_, s, cs := figure78Setup(t)
	if _, err := cs.Sync(day(t, "2000/10/20")); err != nil {
		t.Fatal(err)
	}
	at := day(t, "2001/1/20")
	q := MustParseQuery(
		`aggregate [Time.month, URL.domain_grp] where 1999/6 < Time.month and Time.month <= 2000/5`, s.Env())

	// Evaluate while stale (un-synchronized path).
	stale, err := cs.Evaluate(q, at)
	if err != nil {
		t.Fatal(err)
	}
	// Now synchronize and evaluate again (synchronized path).
	if _, err := cs.Sync(at); err != nil {
		t.Fatal(err)
	}
	fresh, err := cs.Evaluate(q, at)
	if err != nil {
		t.Fatal(err)
	}
	if canon(stale) != canon(fresh) {
		t.Errorf("un-synchronized evaluation differs:\nstale:\n%s\nfresh:\n%s", canon(stale), canon(fresh))
	}
	if stale.Len() == 0 {
		t.Error("empty result")
	}
}

func TestS5EngineMatchesDefinition2(t *testing.T) {
	// The subcube engine must agree with the Definition 2 semantics
	// (core.Reduce) on query answers at every time point.
	p, s := section71Spec(t)
	cs, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.InsertMO(p.MO); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`aggregate [Time.quarter, URL.domain_grp]`,
		`aggregate [Time.month, URL.domain] where URL.domain_grp = ".com"`,
		`aggregate [Time.year, URL.TOP]`,
		`aggregate [Time.month, URL.domain] where Time.month <= 2000/1`,
	}
	for _, at := range []string{"2000/4/5", "2000/6/5", "2000/11/5", "2001/6/1", "2002/3/1"} {
		tt := day(t, at)
		if _, err := cs.Sync(tt); err != nil {
			t.Fatal(err)
		}
		red, err := core.Reduce(s, p.MO, tt)
		if err != nil {
			t.Fatal(err)
		}
		for _, qsrc := range queries {
			q := MustParseQuery(qsrc, s.Env())
			engine, err := cs.Evaluate(q, tt)
			if err != nil {
				t.Fatal(err)
			}
			var sel *mdm.MO = red.MO
			if q.Pred != nil {
				sel, err = query.Select(red.MO, q.Pred, tt, query.Conservative)
				if err != nil {
					t.Fatal(err)
				}
			}
			direct, err := query.Aggregate(sel, q.Target, query.Availability)
			if err != nil {
				t.Fatal(err)
			}
			if canon(engine) != canon(direct) {
				t.Errorf("at %s, query %q:\nengine:\n%s\ndirect:\n%s",
					at, qsrc, canon(engine), canon(direct))
			}
		}
	}
}

func TestApplySpecRebuild(t *testing.T) {
	// Section 7.2's infrequent synchronization: change the spec, rebuild
	// the cubes, and verify totals are conserved and the layout matches
	// the new spec.
	p, s := section71Spec(t)
	cs, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.InsertMO(p.MO); err != nil {
		t.Fatal(err)
	}
	at := day(t, "2000/11/5")
	if _, err := cs.Sync(at); err != nil {
		t.Fatal(err)
	}
	totalBefore := totalDwell(t, cs)

	// New spec: additionally collapse old .com data to (year, domain).
	// (The .com restriction keeps a4 NonCrossing with a3, whose week
	// target is incomparable with year.)
	env := s.Env()
	a4 := spec.MustCompileString("a4",
		`aggregate [Time.year, URL.domain] where URL.domain_grp = ".com" and Time.year <= NOW - 3 years`, env)
	if err := s.Insert(a4); err != nil {
		t.Fatal(err)
	}
	if err := cs.ApplySpec(s, at); err != nil {
		t.Fatal(err)
	}
	if len(cs.Cubes()) != 5 {
		t.Errorf("cubes after spec change = %d, want 5", len(cs.Cubes()))
	}
	if got := totalDwell(t, cs); got != totalBefore {
		t.Errorf("dwell total changed: %v -> %v", totalBefore, got)
	}
	// Later, the old facts collapse into the year cube.
	later := day(t, "2003/1/1")
	if _, err := cs.Sync(later); err != nil {
		t.Fatal(err)
	}
	year := cs.cubeAt(mustGran(t, env, "Time.year", "URL.domain"))
	if year == nil || year.Rows() == 0 {
		t.Error("year cube empty after aging")
	}
}

func totalDwell(t *testing.T, cs *CubeSet) float64 {
	t.Helper()
	var total float64
	for _, c := range cs.Cubes() {
		mo, err := c.MO(cs.Spec().Env().Schema)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < mo.Len(); f++ {
			total += mo.Measure(mdm.FactID(f), 1)
		}
	}
	return total
}

func mustGran(t *testing.T, env *spec.Env, refs ...string) mdm.Granularity {
	t.Helper()
	g, err := env.Schema.ParseGranularity(refs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestParseQueryErrors(t *testing.T) {
	_, s := section71Spec(t)
	bad := []string{
		`aggregate [Time.month]`,
		`aggregate [Time.month, URL.domain] where Shop.x = "y"`,
		`garbage`,
	}
	for _, src := range bad {
		if _, err := ParseQuery(src, s.Env()); err == nil {
			t.Errorf("ParseQuery(%q) succeeded", src)
		}
	}
	// Evaluate with a malformed target.
	cs, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Evaluate(Query{Target: mdm.Granularity{0}}, 0); err == nil {
		t.Error("short target accepted")
	}
}

func TestLateArrivalsFlowThroughBottom(t *testing.T) {
	// Old data bulk-loaded after synchronization must aggregate directly
	// from the bottom cube on the next sync.
	p, s := section71Spec(t)
	cs, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	at := day(t, "2000/11/5")
	if _, err := cs.Sync(at); err != nil {
		t.Fatal(err)
	}
	// A late 1999 cnn click.
	dv := p.Time.EnsureDay(day(t, "1999/12/20"))
	uv := p.URL.MustEnsureURL("http://www.cnn.com/")
	if err := cs.Insert([]mdm.ValueID{dv, uv}, []float64{1, 50, 1, 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Sync(at); err != nil {
		t.Fatal(err)
	}
	quarter := cs.cubeAt(mustGran(t, s.Env(), "Time.quarter", "URL.domain"))
	if quarter.Rows() != 1 {
		t.Errorf("quarter cube rows = %d, want 1", quarter.Rows())
	}
	if cs.Cubes()[0].Rows() != 0 {
		t.Errorf("bottom cube rows = %d, want 0", cs.Cubes()[0].Rows())
	}
}
