package core

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"dimred/internal/caltime"
	"dimred/internal/dims"
	"dimred/internal/mdm"
	"dimred/internal/spec"
)

const (
	srcA1 = `aggregate [Time.month, URL.domain] where URL.domain_grp = ".com" and NOW - 12 months < Time.month and Time.month <= NOW - 6 months`
	srcA2 = `aggregate [Time.quarter, URL.domain] where URL.domain_grp = ".com" and Time.quarter <= NOW - 4 quarters`
)

func paperSpec(t *testing.T) (*dims.PaperObject, *spec.Spec) {
	t.Helper()
	p := dims.MustPaperMO()
	env, err := spec.NewEnv(p.Schema, "Time", p.Time)
	if err != nil {
		t.Fatal(err)
	}
	a1 := spec.MustCompileString("a1", srcA1, env)
	a2 := spec.MustCompileString("a2", srcA2, env)
	s, err := spec.New(env, a1, a2)
	if err != nil {
		t.Fatal(err)
	}
	return p, s
}

func day(t *testing.T, s string) caltime.Day {
	t.Helper()
	d, err := caltime.ParseDay(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSpecGranPaperExample(t *testing.T) {
	// Section 4.2: Spec_gran(fact_1, 2000/11/5) = {(day, url),
	// (month, domain), (quarter, domain)} — wait: the paper writes
	// (month, url) for a1's entry because its example keeps URL at url in
	// Gran; our compiled a1 targets (month, domain). The set must contain
	// the fact's own granularity plus both action targets.
	p, s := paperSpec(t)
	grans := SpecGran(s, p.MO, p.Facts[1], day(t, "2000/11/5"))
	if len(grans) != 3 {
		t.Fatalf("Spec_gran has %d entries, want 3", len(grans))
	}
	schema := p.Schema
	want := []string{
		"(Time.day, URL.url)",
		"(Time.month, URL.domain)",
		"(Time.quarter, URL.domain)",
	}
	got := make([]string, len(grans))
	for i, g := range grans {
		got[i] = schema.GranString(g)
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
			}
		}
		if !found {
			t.Errorf("Spec_gran missing %s (got %v)", w, got)
		}
	}
}

func TestCellPaperExample(t *testing.T) {
	// Section 4.2: Cell(fact_1, 2000/11/5) = (1999Q4, cnn.com).
	p, s := paperSpec(t)
	cell, gran, resp, err := Cell(s, p.MO, p.Facts[1], day(t, "2000/11/5"))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Time.ValueName(cell[0]); got != "1999Q4" {
		t.Errorf("cell time = %q, want 1999Q4", got)
	}
	if got := p.URL.ValueName(cell[1]); got != "cnn.com" {
		t.Errorf("cell url = %q, want cnn.com", got)
	}
	if got := p.Schema.GranString(gran); got != "(Time.quarter, URL.domain)" {
		t.Errorf("granularity = %s", got)
	}
	if resp[0] == nil || resp[0].Name() != "a2" {
		t.Errorf("responsible for time should be a2, got %v", resp[0])
	}
}

// reduceAt is a helper running Reduce and failing the test on error.
func reduceAt(t *testing.T, s *spec.Spec, mo *mdm.MO, at string) *Result {
	t.Helper()
	res, err := Reduce(s, mo, day(t, at))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestReduceFigure3Snapshot1(t *testing.T) {
	// At 2000/4/5 no fact satisfies any predicate: the reduced MO equals
	// the original.
	p, s := paperSpec(t)
	res := reduceAt(t, s, p.MO, "2000/4/5")
	if res.MO.Len() != 7 {
		t.Fatalf("facts = %d, want 7", res.MO.Len())
	}
	for f := 0; f < res.MO.Len(); f++ {
		g := res.MO.Gran(mdm.FactID(f))
		if got := p.Schema.GranString(g); got != "(Time.day, URL.url)" {
			t.Errorf("fact %d granularity = %s", f, got)
		}
	}
}

func findFact(t *testing.T, mo *mdm.MO, name string) mdm.FactID {
	t.Helper()
	for f := 0; f < mo.Len(); f++ {
		if mo.Name(mdm.FactID(f)) == name {
			return mdm.FactID(f)
		}
	}
	t.Fatalf("no fact named %q in\n%s", name, mo.Dump())
	return 0
}

func TestReduceFigure3Snapshot2(t *testing.T) {
	// At 2000/6/5: fact_1 and fact_2 aggregate into fact_12 at
	// (1999/12, cnn.com) with measures (2, 2489, 7, 94k); fact_0 and
	// fact_3 move to month granularity individually; the 2000 facts are
	// untouched.
	p, s := paperSpec(t)
	res := reduceAt(t, s, p.MO, "2000/6/5")
	if res.MO.Len() != 6 {
		t.Fatalf("facts = %d, want 6:\n%s", res.MO.Len(), res.MO.Dump())
	}
	f12 := findFact(t, res.MO, "fact_12")
	if got := res.MO.CellString(f12); got != "1999/12, cnn.com" {
		t.Errorf("fact_12 cell = %q", got)
	}
	wantMeasures := []float64{2, 2489, 7, 94}
	for j, w := range wantMeasures {
		if got := res.MO.Measure(f12, j); got != w {
			t.Errorf("fact_12 measure %d = %v, want %v", j, got, w)
		}
	}
	f0 := findFact(t, res.MO, "fact_0")
	if got := res.MO.CellString(f0); got != "1999/11, amazon.com" {
		t.Errorf("fact_0 cell = %q", got)
	}
	f3 := findFact(t, res.MO, "fact_3")
	if got := res.MO.CellString(f3); got != "1999/12, amazon.com" {
		t.Errorf("fact_3 cell = %q", got)
	}
	for _, name := range []string{"fact_4", "fact_5", "fact_6"} {
		f := findFact(t, res.MO, name)
		if got := p.Schema.GranString(res.MO.Gran(f)); got != "(Time.day, URL.url)" {
			t.Errorf("%s granularity = %s", name, got)
		}
	}
	// Provenance of fact_12: sources fact_1 and fact_2, a1 responsible.
	prov := res.Prov[f12]
	if len(prov.Sources) != 2 {
		t.Errorf("fact_12 sources = %v", prov.Sources)
	}
	if prov.Responsible[0] == nil || prov.Responsible[0].Name() != "a1" {
		t.Errorf("fact_12 responsible = %v", prov.Responsible)
	}
}

func TestReduceFigure3Snapshot3(t *testing.T) {
	// At 2000/11/5: fact_03 (1999Q4, amazon.com) = (2, 689, 3, 68k);
	// fact_12 (1999Q4, cnn.com) = (2, 2489, 7, 94k); fact_45
	// (2000/1, cnn.com) = (2, 955, 10, 99k); fact_6 untouched.
	p, s := paperSpec(t)
	res := reduceAt(t, s, p.MO, "2000/11/5")
	if res.MO.Len() != 4 {
		t.Fatalf("facts = %d, want 4:\n%s", res.MO.Len(), res.MO.Dump())
	}
	checks := []struct {
		name, cell string
		meas       []float64
	}{
		{"fact_03", "1999Q4, amazon.com", []float64{2, 689, 3, 68}},
		{"fact_12", "1999Q4, cnn.com", []float64{2, 2489, 7, 94}},
		{"fact_45", "2000/1, cnn.com", []float64{2, 955, 10, 99}},
		{"fact_6", "2000/1/20, http://www.cc.gatech.edu/", []float64{1, 32, 1, 12}},
	}
	for _, c := range checks {
		f := findFact(t, res.MO, c.name)
		if got := res.MO.CellString(f); got != c.cell {
			t.Errorf("%s cell = %q, want %q", c.name, got, c.cell)
		}
		for j, w := range c.meas {
			if got := res.MO.Measure(f, j); got != w {
				t.Errorf("%s measure %d = %v, want %v", c.name, j, got, w)
			}
		}
	}
}

func TestReducePreservesSumTotals(t *testing.T) {
	// Conservation law: SUM measures are invariant under reduction at
	// any time.
	p, s := paperSpec(t)
	for _, at := range []string{"2000/4/5", "2000/6/5", "2000/11/5", "2002/1/1"} {
		res := reduceAt(t, s, p.MO, at)
		for j := range p.Schema.Measures {
			if got, want := res.MO.TotalMeasure(j), p.MO.TotalMeasure(j); got != want {
				t.Errorf("at %s: measure %d total = %v, want %v", at, j, got, want)
			}
		}
	}
}

func TestReduceIdempotentAtFixedTime(t *testing.T) {
	// Reducing an already-reduced MO at the same time is the identity
	// (up to fact order), because aggregated cells satisfy the same
	// predicates.
	p, s := paperSpec(t)
	for _, at := range []string{"2000/6/5", "2000/11/5"} {
		res1 := reduceAt(t, s, p.MO, at)
		res2 := reduceAt(t, s, res1.MO, at)
		if res1.MO.Len() != res2.MO.Len() {
			t.Fatalf("at %s: second reduction changed fact count %d -> %d",
				at, res1.MO.Len(), res2.MO.Len())
		}
		if d1, d2 := res1.MO.Dump(), res2.MO.Dump(); d1 != d2 {
			t.Errorf("at %s: second reduction changed facts:\n%s\nvs\n%s", at, d1, d2)
		}
	}
}

func TestReduceMonotoneOverTime(t *testing.T) {
	// Reducing at a later time never yields more facts (growing spec).
	p, s := paperSpec(t)
	times := []string{"2000/4/5", "2000/6/5", "2000/9/1", "2000/11/5", "2001/6/1", "2002/1/1"}
	prev := 1 << 30
	for _, at := range times {
		res := reduceAt(t, s, p.MO, at)
		if res.MO.Len() > prev {
			t.Errorf("fact count grew over time at %s: %d > %d", at, res.MO.Len(), prev)
		}
		prev = res.MO.Len()
	}
}

func TestReduceIncrementalEqualsDirect(t *testing.T) {
	// Reducing at t1 and then at t2 equals reducing directly at t2: the
	// gradual process the paper describes is confluent.
	p, s := paperSpec(t)
	step1 := reduceAt(t, s, p.MO, "2000/6/5")
	step2 := reduceAt(t, s, step1.MO, "2000/11/5")
	direct := reduceAt(t, s, p.MO, "2000/11/5")
	if step2.MO.Dump() != direct.MO.Dump() {
		t.Errorf("incremental and direct reduction differ:\n%s\nvs\n%s",
			step2.MO.Dump(), direct.MO.Dump())
	}
}

func TestMergedNameFallback(t *testing.T) {
	p, s := paperSpec(t)
	// Rename a source so the fact_<digits> scheme breaks.
	mo := p.MO.Clone()
	mo.SetName(p.Facts[0], "clickA")
	res, err := Reduce(s, mo, day(t, "2000/11/5"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for f := 0; f < res.MO.Len(); f++ {
		if strings.HasPrefix(res.MO.Name(mdm.FactID(f)), "agg(") {
			found = true
		}
	}
	if !found {
		t.Errorf("fallback name not used:\n%s", res.MO.Dump())
	}
}

func TestCellErrorsOnCrossingHackedSpec(t *testing.T) {
	// Failure injection: Cell surfaces an error when the specified
	// granularities have no maximum. We bypass Insert's checks by
	// building two specs and merging their action lists through the
	// public API is impossible — so instead check MaxGranularity's error
	// through SpecGran on a spec whose actions cross for a hypothetical
	// fact. Constructing such a spec via New fails, which is itself the
	// guarantee; assert that here.
	p := dims.MustPaperMO()
	env, err := spec.NewEnv(p.Schema, "Time", p.Time)
	if err != nil {
		t.Fatal(err)
	}
	a2 := spec.MustCompileString("a2", srcA2, env)
	c3 := spec.MustCompileString("c3", `aggregate [Time.month, URL.domain_grp] where URL.domain_grp = ".com" and Time.month <= 1999/12`, env)
	if _, err := spec.New(env, a2, c3); err == nil {
		t.Error("crossing spec accepted by New")
	}
}

// TestReduceConservationQuick drives Reduce with randomized measure
// values and times via testing/quick: for any assignment, SUM totals
// are conserved and fact counts never increase.
func TestReduceConservationQuick(t *testing.T) {
	p, s := paperSpec(t)
	base := day(t, "2000/1/1")
	f := func(dwell [7]uint16, dayOffset uint16) bool {
		mo := p.MO.Clone()
		var want float64
		for i := 0; i < 7; i++ {
			mo.SetMeasure(mdm.FactID(i), 1, float64(dwell[i]))
			want += float64(dwell[i])
		}
		at := base + caltime.Day(dayOffset%1200)
		res, err := Reduce(s, mo, at)
		if err != nil {
			return false
		}
		return res.MO.TotalMeasure(1) == want && res.MO.Len() <= mo.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestReduceConcurrent runs Reduce and ReduceInterpreted from several
// goroutines over one cold specification (under -race in CI): the Reduce
// calls race to fill the action set's program slot, and whichever program
// each one ends up probing, every result of either equals the oracle's
// dump. The interpreted calls hold the oracle to Definition 6's purity: a
// fold that writes package state races with its twin on another goroutine.
func TestReduceConcurrent(t *testing.T) {
	p, s := paperSpec(t)
	at := day(t, "2000/11/5")
	oracle, err := ReduceInterpreted(s, p.MO, at)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.MO.Dump()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, reduce := range []struct {
				name string
				fn   func(*spec.Spec, *mdm.MO, caltime.Day) (*Result, error)
			}{{"Reduce", Reduce}, {"ReduceInterpreted", ReduceInterpreted}} {
				res, err := reduce.fn(s, p.MO, at)
				if err != nil {
					t.Error(err)
					return
				}
				if got := res.MO.Dump(); got != want {
					t.Errorf("concurrent %s differs from the oracle:\n%s\nvs\n%s", reduce.name, got, want)
				}
			}
		}()
	}
	wg.Wait()
}
