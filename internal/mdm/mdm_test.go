package mdm

import (
	"strings"
	"testing"
	"testing/quick"
)

// buildURLDim constructs the paper's URL dimension shape by hand:
// url < domain < domain_grp < TOP, with the Appendix A values.
func buildURLDim(t *testing.T) (*Dimension, map[string]ValueID) {
	t.Helper()
	d := NewDimension("URL")
	url := d.MustAddCategory("url", false)
	dom := d.MustAddCategory("domain", false)
	grp := d.MustAddCategory("domain_grp", false)
	if err := d.Contains(url, dom); err != nil {
		t.Fatal(err)
	}
	if err := d.Contains(dom, grp); err != nil {
		t.Fatal(err)
	}
	d.MustFinalize()

	vals := make(map[string]ValueID)
	vals[".com"] = d.MustAddValue(grp, ".com", 0, nil)
	vals[".edu"] = d.MustAddValue(grp, ".edu", 0, nil)
	vals["cnn.com"] = d.MustAddValue(dom, "cnn.com", 0, map[CategoryID]ValueID{grp: vals[".com"]})
	vals["amazon.com"] = d.MustAddValue(dom, "amazon.com", 0, map[CategoryID]ValueID{grp: vals[".com"]})
	vals["gatech.edu"] = d.MustAddValue(dom, "gatech.edu", 0, map[CategoryID]ValueID{grp: vals[".edu"]})
	vals["www.cnn.com/"] = d.MustAddValue(url, "www.cnn.com/", 0, map[CategoryID]ValueID{dom: vals["cnn.com"]})
	vals["www.cnn.com/health"] = d.MustAddValue(url, "www.cnn.com/health", 0, map[CategoryID]ValueID{dom: vals["cnn.com"]})
	vals["www.amazon.com/ex"] = d.MustAddValue(url, "www.amazon.com/ex", 0, map[CategoryID]ValueID{dom: vals["amazon.com"]})
	vals["www.cc.gatech.edu/"] = d.MustAddValue(url, "www.cc.gatech.edu/", 0, map[CategoryID]ValueID{dom: vals["gatech.edu"]})
	return d, vals
}

// buildMiniTimeDim constructs a tiny Time-shaped dimension with the
// non-linear hierarchy day < {week, month}, month < TOP-chain.
func buildMiniTimeDim(t *testing.T) (*Dimension, map[string]ValueID) {
	t.Helper()
	d := NewDimension("Time")
	day := d.MustAddCategory("day", true)
	week := d.MustAddCategory("week", true)
	month := d.MustAddCategory("month", true)
	quarter := d.MustAddCategory("quarter", true)
	if err := d.Contains(day, week); err != nil {
		t.Fatal(err)
	}
	if err := d.Contains(day, month); err != nil {
		t.Fatal(err)
	}
	if err := d.Contains(month, quarter); err != nil {
		t.Fatal(err)
	}
	d.MustFinalize()

	vals := make(map[string]ValueID)
	vals["1999Q4"] = d.MustAddValue(quarter, "1999Q4", 0, nil)
	vals["1999/11"] = d.MustAddValue(month, "1999/11", 0, map[CategoryID]ValueID{quarter: vals["1999Q4"]})
	vals["1999/12"] = d.MustAddValue(month, "1999/12", 1, map[CategoryID]ValueID{quarter: vals["1999Q4"]})
	vals["1999W47"] = d.MustAddValue(week, "1999W47", 0, nil)
	vals["1999W48"] = d.MustAddValue(week, "1999W48", 1, nil)
	vals["d1"] = d.MustAddValue(day, "1999/11/23", 10, map[CategoryID]ValueID{week: vals["1999W47"], month: vals["1999/11"]})
	vals["d2"] = d.MustAddValue(day, "1999/12/4", 21, map[CategoryID]ValueID{week: vals["1999W48"], month: vals["1999/12"]})
	return d, vals
}

func TestDimensionCategoryOrder(t *testing.T) {
	d, _ := buildURLDim(t)
	url, _ := d.CategoryByName("url")
	dom, _ := d.CategoryByName("domain")
	grp, _ := d.CategoryByName("domain_grp")
	top := d.Top()

	if d.Bottom() != url {
		t.Errorf("bottom = %v, want url", d.Bottom())
	}
	if !d.CatLE(url, dom) || !d.CatLE(dom, grp) || !d.CatLE(url, top) {
		t.Error("expected url <= domain <= domain_grp <= TOP")
	}
	if d.CatLE(grp, url) {
		t.Error("domain_grp <= url should be false")
	}
	if !d.Linear() {
		t.Error("URL dimension should be linear")
	}
	if got := d.Anc(dom); len(got) != 1 || got[0] != grp {
		t.Errorf("Anc(domain) = %v, want [domain_grp]", got)
	}
}

func TestDimensionNonLinear(t *testing.T) {
	d, _ := buildMiniTimeDim(t)
	week, _ := d.CategoryByName("week")
	month, _ := d.CategoryByName("month")
	if d.Linear() {
		t.Error("Time dimension should be non-linear")
	}
	if d.CatComparable(week, month) {
		t.Error("week and month should be incomparable")
	}
	day, _ := d.CategoryByName("day")
	if got := d.GLB(week, month); got != day {
		t.Errorf("GLB(week, month) = %s, want day", d.Category(got).Name)
	}
	quarter, _ := d.CategoryByName("quarter")
	if got := d.GLB(week, quarter); got != day {
		t.Errorf("GLB(week, quarter) = %s, want day", d.Category(got).Name)
	}
	if got := d.GLB(month, quarter); got != month {
		t.Errorf("GLB(month, quarter) = %s, want month", d.Category(got).Name)
	}
}

func TestGLBIsGreatestLowerBound(t *testing.T) {
	d, _ := buildMiniTimeDim(t)
	n := d.NumCategories()
	for c1 := 0; c1 < n; c1++ {
		for c2 := 0; c2 < n; c2++ {
			g := d.GLB(CategoryID(c1), CategoryID(c2))
			if !d.CatLE(g, CategoryID(c1)) || !d.CatLE(g, CategoryID(c2)) {
				t.Fatalf("GLB(%d,%d)=%d is not a lower bound", c1, c2, g)
			}
			for c3 := 0; c3 < n; c3++ {
				if d.CatLE(CategoryID(c3), CategoryID(c1)) && d.CatLE(CategoryID(c3), CategoryID(c2)) {
					if !d.CatLE(CategoryID(c3), g) {
						t.Fatalf("GLB(%d,%d)=%d not greatest: %d is a larger lower bound", c1, c2, g, c3)
					}
				}
			}
		}
	}
}

func TestFinalizeErrors(t *testing.T) {
	// Cycle.
	d := NewDimension("X")
	a := d.MustAddCategory("a", false)
	b := d.MustAddCategory("b", false)
	if err := d.Contains(a, b); err != nil {
		t.Fatal(err)
	}
	if err := d.Contains(b, a); err != nil {
		t.Fatal(err)
	}
	if err := d.Finalize(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}

	// Multiple bottoms.
	d2 := NewDimension("Y")
	a2 := d2.MustAddCategory("a", false)
	b2 := d2.MustAddCategory("b", false)
	c2 := d2.MustAddCategory("c", false)
	if err := d2.Contains(a2, c2); err != nil {
		t.Fatal(err)
	}
	if err := d2.Contains(b2, c2); err != nil {
		t.Fatal(err)
	}
	if err := d2.Finalize(); err == nil {
		t.Error("multiple bottoms not detected")
	}

	// Empty dimension.
	d3 := NewDimension("Z")
	if err := d3.Finalize(); err == nil {
		t.Error("empty dimension not detected")
	}

	// Self-containment.
	d4 := NewDimension("W")
	a4 := d4.MustAddCategory("a", false)
	if err := d4.Contains(a4, a4); err == nil {
		t.Error("self-containment not detected")
	}
}

func TestAddValueErrors(t *testing.T) {
	d, vals := buildURLDim(t)
	url, _ := d.CategoryByName("url")
	dom, _ := d.CategoryByName("domain")

	// Missing parent.
	if _, err := d.AddValue(url, "orphan", 0, nil); err == nil {
		t.Error("missing parent not detected")
	}
	// Parent in wrong category.
	if _, err := d.AddValue(url, "bad", 0, map[CategoryID]ValueID{dom: vals[".com"]}); err == nil {
		t.Error("wrong-category parent not detected")
	}
	// Duplicate name.
	if _, err := d.AddValue(dom, "cnn.com", 0, map[CategoryID]ValueID{d.CategoryOf(vals[".com"]): vals[".com"]}); err == nil {
		t.Error("duplicate value not detected")
	}
	// Value before finalize.
	d2 := NewDimension("V")
	c := d2.MustAddCategory("c", false)
	if _, err := d2.AddValue(c, "x", 0, nil); err == nil {
		t.Error("AddValue before Finalize not detected")
	}
}

func TestAncestorAtAndValueLE(t *testing.T) {
	d, vals := buildURLDim(t)
	dom, _ := d.CategoryByName("domain")
	grp, _ := d.CategoryByName("domain_grp")
	week := CategoryID(99) // not a category; AncestorAt is never called with it

	_ = week
	h := vals["www.cnn.com/health"]
	if got := d.AncestorAt(h, dom); got != vals["cnn.com"] {
		t.Errorf("ancestor(health, domain) = %v", d.ValueName(got))
	}
	if got := d.AncestorAt(h, grp); got != vals[".com"] {
		t.Errorf("ancestor(health, domain_grp) = %v", d.ValueName(got))
	}
	if got := d.AncestorAt(h, d.Top()); got != d.TopValueID() {
		t.Errorf("ancestor(health, TOP) = %v", got)
	}
	if !d.ValueLE(h, vals["cnn.com"]) || !d.ValueLE(h, vals[".com"]) || !d.ValueLE(h, h) {
		t.Error("ValueLE containment chain broken")
	}
	if d.ValueLE(vals["cnn.com"], h) {
		t.Error("ValueLE should not hold downwards")
	}
	if d.ValueLE(vals["cnn.com"], vals[".edu"]) {
		t.Error("cnn.com <= .edu should be false")
	}
}

func TestAncestorAtNonLinear(t *testing.T) {
	d, vals := buildMiniTimeDim(t)
	week, _ := d.CategoryByName("week")
	month, _ := d.CategoryByName("month")
	quarter, _ := d.CategoryByName("quarter")

	d2 := vals["d2"] // 1999/12/4
	if got := d.AncestorAt(d2, week); got != vals["1999W48"] {
		t.Errorf("week ancestor = %s", d.ValueName(got))
	}
	if got := d.AncestorAt(d2, month); got != vals["1999/12"] {
		t.Errorf("month ancestor = %s", d.ValueName(got))
	}
	if got := d.AncestorAt(d2, quarter); got != vals["1999Q4"] {
		t.Errorf("quarter ancestor = %s", d.ValueName(got))
	}
	// A quarter value has no week ancestor.
	if got := d.AncestorAt(vals["1999Q4"], week); got != NoValue {
		t.Errorf("quarter's week ancestor = %v, want NoValue", got)
	}
	// A week value has no month/quarter ancestor.
	if got := d.AncestorAt(vals["1999W48"], quarter); got != NoValue {
		t.Errorf("week's quarter ancestor = %v, want NoValue", got)
	}
}

func TestDrillDown(t *testing.T) {
	d, vals := buildMiniTimeDim(t)
	day, _ := d.CategoryByName("day")
	month, _ := d.CategoryByName("month")

	got := d.DrillDown(vals["1999Q4"], day)
	if len(got) != 2 || got[0] != vals["d1"] || got[1] != vals["d2"] {
		t.Errorf("DrillDown(1999Q4, day) = %v", got)
	}
	got = d.DrillDown(vals["1999Q4"], month)
	if len(got) != 2 {
		t.Errorf("DrillDown(1999Q4, month) = %v", got)
	}
	// Same category: singleton.
	got = d.DrillDown(vals["d1"], day)
	if len(got) != 1 || got[0] != vals["d1"] {
		t.Errorf("DrillDown(d1, day) = %v", got)
	}
	// Not below: empty.
	week, _ := d.CategoryByName("week")
	if got := d.DrillDown(vals["1999/12"], week); got != nil {
		t.Errorf("DrillDown(month, week) = %v, want nil", got)
	}
}

func TestDrillDownAncestorAdjunction(t *testing.T) {
	// Property: w in DrillDown(v, c) iff AncestorAt(w, cat(v)) == v.
	d, _ := buildMiniTimeDim(t)
	for v := 0; v < d.NumValues(); v++ {
		vid := ValueID(v)
		for c := 0; c < d.NumCategories(); c++ {
			cid := CategoryID(c)
			if !d.CatLE(cid, d.CategoryOf(vid)) {
				continue
			}
			set := make(map[ValueID]bool)
			for _, w := range d.DrillDown(vid, cid) {
				set[w] = true
			}
			for _, w := range d.ValuesIn(cid) {
				want := d.AncestorAt(w, d.CategoryOf(vid)) == vid
				if set[w] != want {
					t.Fatalf("adjunction fails: v=%s c=%s w=%s drill=%v anc=%v",
						d.ValueName(vid), d.Category(cid).Name, d.ValueName(w), set[w], want)
				}
			}
		}
	}
}

func TestSubdimension(t *testing.T) {
	d, _ := buildURLDim(t)
	sub, err := d.Subdimension("domain_grp")
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumCategories() != 2 { // domain_grp + TOP
		t.Errorf("subdimension categories = %d, want 2", sub.NumCategories())
	}
	grp, ok := sub.CategoryByName("domain_grp")
	if !ok {
		t.Fatal("domain_grp missing from subdimension")
	}
	if got := len(sub.ValuesIn(grp)); got != 2 {
		t.Errorf("subdimension domain_grp values = %d, want 2", got)
	}
	if sub.Bottom() != grp {
		t.Error("subdimension bottom should be domain_grp")
	}
	// Unknown category is rejected.
	if _, err := d.Subdimension("nope"); err == nil {
		t.Error("unknown category accepted")
	}
}

func TestSubdimensionSkipsLevels(t *testing.T) {
	// Retain url and domain_grp: the cover edge url < domain_grp must be
	// synthesized and ancestors re-linked across the removed domain level.
	d, vals := buildURLDim(t)
	sub, err := d.Subdimension("url", "domain_grp")
	if err != nil {
		t.Fatal(err)
	}
	url, _ := sub.CategoryByName("url")
	grp, _ := sub.CategoryByName("domain_grp")
	h, ok := sub.ValueByName(url, "www.cnn.com/health")
	if !ok {
		t.Fatal("value missing in subdimension")
	}
	a := sub.AncestorAt(h, grp)
	if sub.ValueName(a) != ".com" {
		t.Errorf("re-linked ancestor = %q, want .com", sub.ValueName(a))
	}
	_ = vals
}

func TestSchemaAndGranularity(t *testing.T) {
	ud, _ := buildURLDim(t)
	td, _ := buildMiniTimeDim(t)
	s, err := NewSchema("Click", []*Dimension{td, ud}, []Measure{
		{Name: "Number_of", Agg: AggSum},
		{Name: "Dwell_time", Agg: AggSum},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.DimIndex("URL") != 1 || s.DimIndex("Time") != 0 || s.DimIndex("X") != -1 {
		t.Error("DimIndex broken")
	}
	if s.MeasureIndex("Dwell_time") != 1 || s.MeasureIndex("zzz") != -1 {
		t.Error("MeasureIndex broken")
	}

	g, err := s.ParseGranularity([]string{"Time.month", "URL.domain"})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.GranString(g); got != "(Time.month, URL.domain)" {
		t.Errorf("GranString = %q", got)
	}
	g2, _ := s.ParseGranularity([]string{"Time.quarter", "URL.domain"})
	if !s.GranLE(g, g2) || s.GranLE(g2, g) {
		t.Error("granularity order broken")
	}
	bot := s.BottomGranularity()
	if !s.GranLE(bot, g) {
		t.Error("bottom should be below everything")
	}

	max, err := s.MaxGranularity([]Granularity{bot, g, g2})
	if err != nil {
		t.Fatal(err)
	}
	if !s.GranEq(max, g2) {
		t.Errorf("MaxGranularity = %s, want %s", s.GranString(max), s.GranString(g2))
	}

	// Incomparable set: (week, url) vs (month, domain).
	gw, _ := s.ParseGranularity([]string{"Time.week", "URL.url"})
	if _, err := s.MaxGranularity([]Granularity{gw, g}); err == nil {
		t.Error("incomparable maximum not detected")
	}

	// Parse errors.
	for _, bad := range [][]string{
		{"Time.month"},
		{"Time.month", "URL.nope"},
		{"Nope.month", "URL.domain"},
		{"Time.month", "Time.week"},
		{"Timemonth", "URL.domain"},
	} {
		if _, err := s.ParseGranularity(bad); err == nil {
			t.Errorf("ParseGranularity(%v) succeeded", bad)
		}
	}
}

// TestSchemaRollUp: the one roll-up appends each value's ancestor at the
// requested category, leaves the values already there alone, and names the
// value and the category when there is no ancestor — below the value's own
// category, or beside it in a parallel hierarchy (a week has no month).
func TestSchemaRollUp(t *testing.T) {
	ud, uv := buildURLDim(t)
	td, tv := buildMiniTimeDim(t)
	s, err := NewSchema("Click", []*Dimension{td, ud}, nil)
	if err != nil {
		t.Fatal(err)
	}
	url := ud.MustAddValue(ud.Bottom(), "http://www.cnn.com/", 0, map[CategoryID]ValueID{ud.CategoryOf(uv["cnn.com"]): uv["cnn.com"]})
	for _, tc := range []struct {
		name    string
		cell    []ValueID
		level   []string
		want    []ValueID
		wantErr string
	}{
		{"bottom to itself", []ValueID{tv["d1"], url}, []string{"Time.day", "URL.url"}, []ValueID{tv["d1"], url}, ""},
		{"day to month, url to domain", []ValueID{tv["d1"], url}, []string{"Time.month", "URL.domain"}, []ValueID{tv["1999/11"], uv["cnn.com"]}, ""},
		{"day to week, the other branch", []ValueID{tv["d2"], url}, []string{"Time.week", "URL.domain_grp"}, []ValueID{tv["1999W48"], uv[".com"]}, ""},
		{"month to quarter, domain stays", []ValueID{tv["1999/12"], uv["cnn.com"]}, []string{"Time.quarter", "URL.domain"}, []ValueID{tv["1999Q4"], uv["cnn.com"]}, ""},
		{"to the top", []ValueID{tv["1999W47"], uv[".com"]}, []string{"Time.TOP", "URL.TOP"}, []ValueID{td.TopValueID(), ud.TopValueID()}, ""},
		{"week has no month", []ValueID{tv["1999W47"], url}, []string{"Time.month", "URL.url"}, nil, "value 1999W47 has no ancestor at Time.month"},
		{"month has no day", []ValueID{tv["1999/11"], url}, []string{"Time.day", "URL.url"}, nil, "value 1999/11 has no ancestor at Time.day"},
		{"second dimension fails", []ValueID{tv["d1"], uv[".com"]}, []string{"Time.day", "URL.domain"}, nil, "value .com has no ancestor at URL.domain"},
	} {
		level, err := s.ParseGranularity(tc.level)
		if err != nil {
			t.Fatal(err)
		}
		// Append-style: what dst held stays in front.
		got, err := s.RollUp([]ValueID{42}, tc.cell, level)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(got) != 3 || got[0] != 42 || got[1] != tc.want[0] || got[2] != tc.want[1] {
			t.Errorf("%s: RollUp = %v, want [42 %d %d]", tc.name, got, tc.want[0], tc.want[1])
		}
	}
}

// TestSchemaCheckFact: a fact from outside is refused, never looked up,
// when an id is not one the dimension holds — the ids either side of the
// range included — when the shape is off, or when floors are given and a
// value sits in another category.
func TestSchemaCheckFact(t *testing.T) {
	ud, uv := buildURLDim(t)
	td, tv := buildMiniTimeDim(t)
	s, err := NewSchema("Click", []*Dimension{td, ud}, []Measure{{Name: "n", Agg: AggSum}})
	if err != nil {
		t.Fatal(err)
	}
	floors, err := s.ParseGranularity([]string{"Time.month", "URL.domain"})
	if err != nil {
		t.Fatal(err)
	}
	good := []ValueID{tv["1999/11"], uv["cnn.com"]}
	for _, tc := range []struct {
		name   string
		refs   []ValueID
		meas   []float64
		floors Granularity
		ok     bool
	}{
		{"at the floors", good, []float64{1}, floors, true},
		{"any granularity", []ValueID{tv["d1"], uv[".com"]}, []float64{1}, nil, true},
		{"last id", []ValueID{ValueID(td.NumValues() - 1), uv["cnn.com"]}, []float64{1}, nil, true},
		{"below the floors", []ValueID{tv["d1"], uv["cnn.com"]}, []float64{1}, floors, false},
		{"above the floors", []ValueID{tv["1999/11"], uv[".com"]}, []float64{1}, floors, false},
		{"NoValue", []ValueID{NoValue, uv["cnn.com"]}, []float64{1}, nil, false},
		{"one past the last id", []ValueID{ValueID(td.NumValues()), uv["cnn.com"]}, []float64{1}, floors, false},
		{"far past, second dimension", []ValueID{tv["1999/11"], 1 << 20}, []float64{1}, nil, false},
		{"a value short", good[:1], []float64{1}, nil, false},
		{"a measure short", good, nil, nil, false},
		{"a measure over", good, []float64{1, 2}, nil, false},
	} {
		if err := s.CheckFact(tc.refs, tc.meas, tc.floors); (err == nil) != tc.ok {
			t.Errorf("%s: CheckFact = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	mo := NewMO(s)
	if _, err := mo.AddFactAt([]ValueID{ValueID(td.NumValues()), uv["cnn.com"]}, []float64{1}, 1, ""); err == nil {
		t.Error("AddFactAt took an id one past the dimension's last")
	}
}

func TestSchemaValidation(t *testing.T) {
	ud, _ := buildURLDim(t)
	if _, err := NewSchema("", []*Dimension{ud}, nil); err == nil {
		t.Error("empty fact type accepted")
	}
	if _, err := NewSchema("F", nil, nil); err == nil {
		t.Error("no dimensions accepted")
	}
	if _, err := NewSchema("F", []*Dimension{ud, ud}, nil); err == nil {
		t.Error("duplicate dimension accepted")
	}
	if _, err := NewSchema("F", []*Dimension{ud}, []Measure{{Name: "m"}, {Name: "m"}}); err == nil {
		t.Error("duplicate measure accepted")
	}
	for _, agg := range []AggKind{-1, AggMax + 1} {
		_, err := NewSchema("F", []*Dimension{ud}, []Measure{{Name: "m", Agg: agg}})
		if err == nil || !strings.Contains(err.Error(), `measure "m"`) {
			t.Errorf("aggregate %d: NewSchema = %v, want an error naming the measure", agg, err)
		}
	}
	unfin := NewDimension("U")
	unfin.MustAddCategory("c", false)
	if _, err := NewSchema("F", []*Dimension{unfin}, nil); err == nil {
		t.Error("unfinalized dimension accepted")
	}
}

func TestMOBasics(t *testing.T) {
	ud, uv := buildURLDim(t)
	td, tv := buildMiniTimeDim(t)
	s, err := NewSchema("Click", []*Dimension{td, ud}, []Measure{
		{Name: "Number_of", Agg: AggSum},
		{Name: "Dwell_time", Agg: AggSum},
	})
	if err != nil {
		t.Fatal(err)
	}
	mo := NewMO(s)
	f, err := mo.AddFact([]ValueID{tv["d2"], uv["www.cnn.com/health"]}, []float64{1, 2335})
	if err != nil {
		t.Fatal(err)
	}
	if mo.Len() != 1 {
		t.Fatal("Len != 1")
	}
	if mo.Measure(f, 1) != 2335 {
		t.Error("measure wrong")
	}
	g := mo.Gran(f)
	if td.Category(g[0]).Name != "day" || ud.Category(g[1]).Name != "url" {
		t.Errorf("Gran = %s", s.GranString(g))
	}
	if !mo.CharacterizedBy(f, 1, uv["cnn.com"]) || !mo.CharacterizedBy(f, 1, uv[".com"]) {
		t.Error("characterization broken")
	}
	if mo.CharacterizedBy(f, 1, uv[".edu"]) {
		t.Error("false characterization")
	}

	// Non-bottom insert must fail via AddFact but work via AddFactAt.
	if _, err := mo.AddFact([]ValueID{tv["1999/12"], uv["cnn.com"]}, []float64{1, 5}); err == nil {
		t.Error("non-bottom AddFact accepted")
	}
	af, err := mo.AddFactAt([]ValueID{tv["1999/12"], uv["cnn.com"]}, []float64{2, 2489}, 2, "fact_12")
	if err != nil {
		t.Fatal(err)
	}
	if mo.Name(af) != "fact_12" || mo.BaseCount(af) != 2 {
		t.Error("AddFactAt metadata broken")
	}
	if got := mo.CellString(af); got != "1999/12, cnn.com" {
		t.Errorf("CellString = %q", got)
	}

	// Arity errors.
	if _, err := mo.AddFact([]ValueID{tv["d2"]}, []float64{1, 1}); err == nil {
		t.Error("bad ref arity accepted")
	}
	if _, err := mo.AddFact([]ValueID{tv["d2"], uv["www.cnn.com/"]}, []float64{1}); err == nil {
		t.Error("bad measure arity accepted")
	}
	if _, err := mo.AddFact([]ValueID{ValueID(999), uv["www.cnn.com/"]}, []float64{1, 1}); err == nil {
		t.Error("bad value id accepted")
	}

	// Clone independence.
	c := mo.Clone()
	c.SetName(f, "renamed")
	if mo.Name(f) == "renamed" {
		t.Error("Clone shares name storage")
	}
	if c.Len() != mo.Len() {
		t.Error("Clone length differs")
	}

	// TotalMeasure sums Dwell_time.
	if got := mo.TotalMeasure(1); got != 2335+2489 {
		t.Errorf("TotalMeasure = %v", got)
	}
	if !strings.Contains(mo.Dump(), "fact_12: 1999/12, cnn.com") {
		t.Errorf("Dump missing row:\n%s", mo.Dump())
	}
}

// TestBorrowedMOIsCopyOnWrite: each mutator applied to a borrow leaves the
// source byte-identical and makes of the borrow what it makes of a clone.
// The source has spare capacity in every column, so an append through a
// borrow that kept the source's columns would land in the source's arrays;
// the borrows stay alive side by side, so one landing in another's would
// show too. A clone of a borrow is independent of both.
func TestBorrowedMOIsCopyOnWrite(t *testing.T) {
	ud, uv := buildURLDim(t)
	td, tv := buildMiniTimeDim(t)
	s, err := NewSchema("Click", []*Dimension{td, ud}, []Measure{
		{Name: "dwell", Agg: AggSum},
		{Name: "n", Agg: AggCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := NewMO(s)
	for i, cell := range [][]ValueID{
		{tv["d1"], uv["www.cnn.com/"]},
		{tv["d2"], uv["www.amazon.com/ex"]},
		{tv["d2"], uv["www.cc.gatech.edu/"]},
	} {
		if _, err := src.AddFact(cell, []float64{float64(10 * (i + 1)), 0}); err != nil {
			t.Fatal(err)
		}
	}
	src.SetName(1, "named")
	n := src.Len()
	if cap(src.cols.refs[0]) == n || cap(src.cols.meas[0]) == n || cap(src.cols.baseCount) == n || cap(src.cols.names) == n {
		t.Fatal("the source needs spare capacity in every column")
	}
	dump, cells := src.Dump(), src.DumpCells()
	sourceIntact := func(what string) {
		t.Helper()
		if src.Len() != n {
			t.Fatalf("%s changed the source's fact count to %d, want %d", what, src.Len(), n)
		}
		if src.Dump() != dump || src.DumpCells() != cells {
			t.Fatalf("%s changed the source:\n%s\nwas:\n%s", what, src.Dump(), dump)
		}
	}
	sameAs := func(what string, got, want *MO) {
		t.Helper()
		if got.Dump() != want.Dump() || got.DumpCells() != want.DumpCells() {
			t.Errorf("%s:\n%s\nwant:\n%s", what, got.DumpCells(), want.DumpCells())
		}
	}

	type mutator struct {
		name  string
		apply func(*MO) error
	}
	mutators := []mutator{
		{"AddFact", func(m *MO) error {
			_, err := m.AddFact([]ValueID{tv["d1"], uv["www.cnn.com/health"]}, []float64{7, 0})
			return err
		}},
		{"AddFactAt", func(m *MO) error {
			_, err := m.AddFactAt([]ValueID{tv["1999/12"], uv["cnn.com"]}, []float64{5, 0}, 4, "rolled")
			return err
		}},
		{"SetMeasure", func(m *MO) error { m.SetMeasure(0, 0, -1); return nil }},
		{"AddBaseCount", func(m *MO) error { m.AddBaseCount(2, 10); return nil }},
		{"SetName", func(m *MO) error { m.SetName(1, "renamed"); return nil }},
	}
	borrows, clones := make([]*MO, len(mutators)), make([]*MO, len(mutators))
	for i, mu := range mutators {
		borrows[i], clones[i] = src.Borrow(), src.Clone()
		if err := mu.apply(borrows[i]); err != nil {
			t.Fatal(err)
		}
		sourceIntact(mu.name + " through a borrow")
		if err := mu.apply(clones[i]); err != nil {
			t.Fatal(err)
		}
		sameAs(mu.name+" through a borrow", borrows[i], clones[i])
	}
	for i, mu := range mutators {
		sameAs(mu.name+" through a borrow, after the others", borrows[i], clones[i])
	}

	// A clone of a borrow owns its columns: writes to it reach neither the
	// borrow nor the source, and writes to the borrow do not reach it.
	b := src.Borrow()
	c := b.Clone()
	for _, mu := range mutators {
		if err := mu.apply(c); err != nil {
			t.Fatal(err)
		}
	}
	sourceIntact("writing a clone of a borrow")
	sameAs("a borrow whose clone was written", b, src)
	cDump := c.Dump()
	b.SetMeasure(1, 0, -2)
	sourceIntact("writing a borrow after cloning it")
	if c.Dump() != cDump {
		t.Errorf("writing a borrow changed its clone:\n%s\nwas:\n%s", c.Dump(), cDump)
	}
}

func TestAggKind(t *testing.T) {
	cases := []struct {
		k        AggKind
		initOf5  float64
		merge5_3 float64
		name     string
	}{
		{AggSum, 5, 8, "SUM"},
		{AggCount, 1, 8, "COUNT"},
		{AggMin, 5, 3, "MIN"},
		{AggMax, 5, 5, "MAX"},
	}
	for _, c := range cases {
		if got := c.k.Init(5); got != c.initOf5 {
			t.Errorf("%v.Init(5) = %v", c.k, got)
		}
		if got := c.k.Merge(5, 3); got != c.merge5_3 {
			t.Errorf("%v.Merge(5,3) = %v", c.k, got)
		}
		if c.k.String() != c.name {
			t.Errorf("String = %q, want %q", c.k.String(), c.name)
		}
	}
}

func TestAggMergeAssociativeCommutative(t *testing.T) {
	// Property: distributivity requires Merge to be associative and
	// commutative for every aggregate kind.
	f := func(a, b, c int16, kindRaw uint8) bool {
		k := AggKind(kindRaw % 4)
		x, y, z := float64(a), float64(b), float64(c)
		if k.Merge(x, y) != k.Merge(y, x) {
			return false
		}
		return k.Merge(k.Merge(x, y), z) == k.Merge(x, k.Merge(y, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestGLBTableMatchesScan: the pairwise table Finalize builds answers
// every pair as the scan over the category order does, on the linear URL
// hierarchy and on the Time shape with its parallel week/month branches.
func TestGLBTableMatchesScan(t *testing.T) {
	timeDim, _ := buildMiniTimeDim(t)
	urlDim, _ := buildURLDim(t)
	for _, d := range []*Dimension{timeDim, urlDim} {
		for a := 0; a < d.NumCategories(); a++ {
			for b := 0; b < d.NumCategories(); b++ {
				ca, cb := CategoryID(a), CategoryID(b)
				if got, want := d.GLB(ca, cb), d.glbScan(ca, cb); got != want {
					t.Errorf("%s: GLB(%s, %s) = %s, the scan says %s", d.Name(),
						d.Category(ca).Name, d.Category(cb).Name, d.Category(got).Name, d.Category(want).Name)
				}
			}
		}
	}
	week, _ := timeDim.CategoryByName("week")
	month, _ := timeDim.CategoryByName("month")
	if got := timeDim.GLB(week, month); got != timeDim.Bottom() {
		t.Errorf("GLB(week, month) = %s, want day", timeDim.Category(got).Name)
	}
	if got, want := timeDim.GLB(week, month, timeDim.Top()), timeDim.Bottom(); got != want {
		t.Errorf("three-category GLB = %s, want day", timeDim.Category(got).Name)
	}
}
