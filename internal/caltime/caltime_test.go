package caltime

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestDateRoundTrip(t *testing.T) {
	cases := []struct {
		y, m, d int
	}{
		{1970, 1, 1}, {1969, 12, 31}, {2000, 2, 29}, {1900, 2, 28},
		{1999, 11, 23}, {1999, 12, 4}, {1999, 12, 31}, {2000, 1, 4},
		{2000, 1, 20}, {1600, 1, 1}, {2400, 12, 31}, {1, 1, 1},
	}
	for _, c := range cases {
		d := Date(c.y, c.m, c.d)
		y, m, dd := d.Civil()
		if y != c.y || m != c.m || dd != c.d {
			t.Errorf("Date(%d,%d,%d) round-trips to (%d,%d,%d)", c.y, c.m, c.d, y, m, dd)
		}
	}
}

func TestDateEpoch(t *testing.T) {
	if d := Date(1970, 1, 1); d != 0 {
		t.Fatalf("epoch = %d, want 0", d)
	}
	if d := Date(1970, 1, 2); d != 1 {
		t.Fatalf("epoch+1 = %d, want 1", d)
	}
	if d := Date(1969, 12, 31); d != -1 {
		t.Fatalf("epoch-1 = %d, want -1", d)
	}
}

func TestDateAgainstStdlib(t *testing.T) {
	// Cross-check a sample of dates against the standard library.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		y := 1800 + r.Intn(500)
		m := 1 + r.Intn(12)
		d := 1 + r.Intn(28)
		got := Date(y, m, d)
		want := time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC).Unix() / 86400
		if int64(got) != want {
			t.Fatalf("Date(%d,%d,%d) = %d, stdlib says %d", y, m, d, got, want)
		}
	}
}

func TestWeekday(t *testing.T) {
	// 1970-01-01 was a Thursday.
	if wd := Date(1970, 1, 1).Weekday(); wd != 4 {
		t.Errorf("1970/1/1 weekday = %d, want 4", wd)
	}
	// 1999-12-04 was a Saturday.
	if wd := Date(1999, 12, 4).Weekday(); wd != 6 {
		t.Errorf("1999/12/4 weekday = %d, want 6", wd)
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		d := Day(r.Int63n(200000) - 50000)
		y, m, dd := d.Civil()
		want := int(time.Date(y, time.Month(m), dd, 0, 0, 0, 0, time.UTC).Weekday())
		if want == 0 {
			want = 7
		}
		if got := d.Weekday(); got != want {
			t.Fatalf("Weekday(%v) = %d, want %d", d, got, want)
		}
	}
}

func TestISOWeek(t *testing.T) {
	cases := []struct {
		y, m, d int
		wy, ww  int
	}{
		{1999, 11, 23, 1999, 47},
		{1999, 12, 4, 1999, 48},
		{1999, 12, 31, 1999, 52},
		{2000, 1, 4, 2000, 1},
		{2000, 1, 20, 2000, 3},
		{2005, 1, 1, 2004, 53}, // Saturday of ISO week 2004-W53
		{2007, 12, 31, 2008, 1},
	}
	for _, c := range cases {
		wy, ww := Date(c.y, c.m, c.d).ISOWeek()
		if wy != c.wy || ww != c.ww {
			t.Errorf("ISOWeek(%d/%d/%d) = %dW%d, want %dW%d", c.y, c.m, c.d, wy, ww, c.wy, c.ww)
		}
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		d := Day(r.Int63n(100000) - 20000)
		y, m, dd := d.Civil()
		wy, ww := time.Date(y, time.Month(m), dd, 0, 0, 0, 0, time.UTC).ISOWeek()
		gy, gw := d.ISOWeek()
		if gy != wy || gw != ww {
			t.Fatalf("ISOWeek(%v) = %dW%d, stdlib says %dW%d", d, gy, gw, wy, ww)
		}
	}
}

func TestParseDay(t *testing.T) {
	d, err := ParseDay("1999/12/4")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.String(); got != "1999/12/4" {
		t.Errorf("String = %q", got)
	}
	for _, bad := range []string{"1999/2/30", "1999/13/1", "1999/0/1", "x/y/z", "1999/12", "", "-4/1/1", "100000000000000000/1/1"} {
		if _, err := ParseDay(bad); err == nil {
			t.Errorf("ParseDay(%q) succeeded, want error", bad)
		}
	}
}

func TestPeriodOfAndBounds(t *testing.T) {
	d := Date(1999, 12, 4)
	cases := []struct {
		u           Unit
		str         string
		first, last Day
	}{
		{UnitDay, "1999/12/4", d, d},
		{UnitWeek, "1999W48", Date(1999, 11, 29), Date(1999, 12, 5)},
		{UnitMonth, "1999/12", Date(1999, 12, 1), Date(1999, 12, 31)},
		{UnitQuarter, "1999Q4", Date(1999, 10, 1), Date(1999, 12, 31)},
		{UnitYear, "1999", Date(1999, 1, 1), Date(1999, 12, 31)},
	}
	for _, c := range cases {
		p := PeriodOf(d, c.u)
		if p.String() != c.str {
			t.Errorf("PeriodOf(%v, %v) = %q, want %q", d, c.u, p.String(), c.str)
		}
		if p.First() != c.first {
			t.Errorf("%v First = %v, want %v", p, p.First(), c.first)
		}
		if p.Last() != c.last {
			t.Errorf("%v Last = %v, want %v", p, p.Last(), c.last)
		}
		if !p.Contains(d) {
			t.Errorf("%v does not contain %v", p, d)
		}
	}
}

func TestPeriodStringParseRoundTrip(t *testing.T) {
	for _, s := range []string{"1999/12/4", "1999W48", "2000W1", "1999/12", "1999Q4", "2000Q1", "1999", "2005W52"} {
		p, err := ParsePeriod(s)
		if err != nil {
			t.Fatalf("ParsePeriod(%q): %v", s, err)
		}
		if got := p.String(); got != s {
			t.Errorf("ParsePeriod(%q).String() = %q", s, got)
		}
	}
	// Years outside [MinYear, MaxYear] must be rejected in every literal
	// form: an unbounded year overflows the period index encodings and
	// renders as a negative literal that cannot re-parse.
	for _, bad := range []string{
		"1999W54", "1999Q5", "1999/13", "abc", "1999/2/30", "W48",
		"100000000000000000/1", "100000000000000000/1/1", "100000000000000000",
		"100000000000000000Q1", "100000000000000000W1", "-1/1", "-1", "-1Q1",
	} {
		if _, err := ParsePeriod(bad); err == nil {
			t.Errorf("ParsePeriod(%q) succeeded, want error", bad)
		}
	}
}

func TestPeriodContiguity(t *testing.T) {
	// Property: for every unit, periods tile the day line with no gaps.
	f := func(raw int32, unitRaw uint8) bool {
		d := Day(int64(raw) % 300000)
		u := Unit(unitRaw % 5)
		p := PeriodOf(d, u)
		if !p.Contains(d) {
			return false
		}
		if p.First() > d || p.Last() < d {
			return false
		}
		next := Period{u, p.Index + 1}
		return next.First() == p.Last()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestPeriodMonotone(t *testing.T) {
	// Property: PeriodOf is monotone in the day for every unit.
	f := func(raw int32, delta uint16, unitRaw uint8) bool {
		d1 := Day(int64(raw) % 300000)
		d2 := d1 + Day(delta)
		u := Unit(unitRaw % 5)
		return PeriodOf(d1, u).Index <= PeriodOf(d2, u).Index
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestAddSpan(t *testing.T) {
	cases := []struct {
		d    string
		s    Span
		want string
	}{
		{"2000/11/5", Span{-6, UnitMonth}, "2000/5/5"},
		{"2000/11/5", Span{-4, UnitQuarter}, "1999/11/5"},
		{"2000/11/5", Span{-12, UnitMonth}, "1999/11/5"},
		{"1999/1/31", Span{1, UnitMonth}, "1999/2/28"},
		{"2000/1/31", Span{1, UnitMonth}, "2000/2/29"},
		{"2000/2/29", Span{1, UnitYear}, "2001/2/28"},
		{"1999/12/4", Span{2, UnitWeek}, "1999/12/18"},
		{"1999/12/4", Span{-10, UnitDay}, "1999/11/24"},
		{"1999/12/4", Span{0, UnitYear}, "1999/12/4"},
	}
	for _, c := range cases {
		d, err := ParseDay(c.d)
		if err != nil {
			t.Fatal(err)
		}
		if got := AddSpan(d, c.s).String(); got != c.want {
			t.Errorf("AddSpan(%s, %v) = %s, want %s", c.d, c.s, got, c.want)
		}
	}
}

func TestSubSpanInverseForDays(t *testing.T) {
	f := func(raw int32, n uint8) bool {
		d := Day(int64(raw) % 300000)
		s := Span{int64(n), UnitDay}
		return SubSpan(AddSpan(d, s), s) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseUnit(t *testing.T) {
	for s, want := range map[string]Unit{"day": UnitDay, "Weeks": UnitWeek, "month": UnitMonth, "quarters": UnitQuarter, "YEAR": UnitYear} {
		got, err := ParseUnit(s)
		if err != nil || got != want {
			t.Errorf("ParseUnit(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseUnit("fortnight"); err == nil {
		t.Error("ParseUnit(fortnight) succeeded")
	}
}

func TestExprEval(t *testing.T) {
	now, _ := ParseDay("2000/11/5")

	// The paper's Section 4.2 example: at 2000/11/5, "NOW - 4 quarters"
	// at quarter granularity is 1999Q4 ("2000Q4 - 4").
	e := NowExpr().Minus(Span{4, UnitQuarter})
	if got := e.EvalPeriod(now, UnitQuarter).String(); got != "1999Q4" {
		t.Errorf("NOW - 4 quarters @ 2000/11/5 = %s, want 1999Q4", got)
	}
	e = NowExpr().Minus(Span{6, UnitMonth})
	if got := e.EvalPeriod(now, UnitMonth).String(); got != "2000/5" {
		t.Errorf("NOW - 6 months @ 2000/11/5 = %s, want 2000/5", got)
	}
	e = NowExpr().Minus(Span{12, UnitMonth})
	if got := e.EvalPeriod(now, UnitMonth).String(); got != "1999/11" {
		t.Errorf("NOW - 12 months @ 2000/11/5 = %s, want 1999/11", got)
	}

	p, _ := ParsePeriod("1999/12")
	a := AnchorExpr(p)
	if got := a.EvalPeriod(now, UnitMonth).String(); got != "1999/12" {
		t.Errorf("anchored 1999/12 = %s", got)
	}
	if a.IsNowRelative() {
		t.Error("anchored expression claims NOW-relative")
	}
	if !e.IsNowRelative() {
		t.Error("NOW expression claims anchored")
	}
}

func TestExprString(t *testing.T) {
	e := NowExpr().Minus(Span{6, UnitMonth})
	if got := e.String(); got != "NOW - 6 months" {
		t.Errorf("String = %q", got)
	}
	p, _ := ParsePeriod("1999Q4")
	a := AnchorExpr(p).Plus(Span{1, UnitQuarter})
	if got := a.String(); got != "1999Q4 + 1 quarter" {
		t.Errorf("String = %q", got)
	}
}

func TestExprMaxOffsetDays(t *testing.T) {
	e := NowExpr().Minus(Span{12, UnitMonth}).Minus(Span{1, UnitDay})
	if got := e.MaxOffsetDays(); got < 365 || got > 500 {
		t.Errorf("MaxOffsetDays = %d, want a tight bound above 365", got)
	}
}

func TestExprBaseUnit(t *testing.T) {
	p, _ := ParsePeriod("1999W48")
	if u, ok := AnchorExpr(p).BaseUnit(); !ok || u != UnitWeek {
		t.Errorf("BaseUnit = %v, %v", u, ok)
	}
	if _, ok := NowExpr().BaseUnit(); ok {
		t.Error("NOW has a base unit")
	}
}

func TestExprEvalDayMonotoneInNow(t *testing.T) {
	// Property: for NOW-relative expressions, EvalDay is monotone in now.
	e := NowExpr().Minus(Span{6, UnitMonth})
	f := func(raw int32, delta uint16) bool {
		n1 := Day(int64(raw) % 300000)
		n2 := n1 + Day(delta)
		return e.EvalDay(n1) <= e.EvalDay(n2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
