// Package caltime provides the calendar-time substrate for the data
// reduction engine: civil dates at day granularity, the coarser calendar
// granularities used by the paper's Time dimension (ISO week, month,
// quarter, year), unanchored time spans, and NOW-relative time expressions
// in the sense of Clifford et al. ("On the Semantics of 'Now' in
// Databases", TODS 1997), which the reduction specification language of
// Skyt, Jensen & Pedersen builds on.
//
// All arithmetic is proleptic Gregorian and purely integral, so results
// are exact and independent of time zones, which matters because the
// soundness checks for reduction specifications (NonCrossing, Growing)
// are decided by exhaustive iteration over day indices.
package caltime

import (
	"fmt"
	"strconv"
	"strings"
)

// Day is a civil date encoded as the number of days since the epoch
// 1970-01-01 (day 0). Negative values are valid and denote days before
// the epoch.
type Day int64

// Unit is a calendar granularity. The order of the constants follows the
// paper's Time dimension from fine to coarse; Week and Month are
// incomparable (parallel hierarchies), which callers must handle via the
// dimension's partial order rather than by comparing Units.
type Unit int

const (
	UnitDay Unit = iota
	UnitWeek
	UnitMonth
	UnitQuarter
	UnitYear
)

var unitNames = [...]string{"day", "week", "month", "quarter", "year"}

// String returns the lower-case name of the unit, e.g. "month".
func (u Unit) String() string {
	if u < UnitDay || u > UnitYear {
		return fmt.Sprintf("Unit(%d)", int(u))
	}
	return unitNames[u]
}

// ParseUnit parses a unit name, accepting singular and plural forms
// ("month", "months").
func ParseUnit(s string) (Unit, error) {
	switch strings.ToLower(strings.TrimSuffix(strings.TrimSpace(s), "s")) {
	case "day":
		return UnitDay, nil
	case "week":
		return UnitWeek, nil
	case "month":
		return UnitMonth, nil
	case "quarter":
		return UnitQuarter, nil
	case "year":
		return UnitYear, nil
	}
	return 0, fmt.Errorf("caltime: unknown unit %q", s)
}

// daysFromCivil converts a civil date to days since 1970-01-01.
// Algorithm from Howard Hinnant's chrono-compatible date algorithms.
func daysFromCivil(y, m, d int) int64 {
	yy := int64(y)
	if m <= 2 {
		yy--
	}
	var era int64
	if yy >= 0 {
		era = yy / 400
	} else {
		era = (yy - 399) / 400
	}
	yoe := yy - era*400 // [0, 399]
	var mp int64
	if m > 2 {
		mp = int64(m) - 3
	} else {
		mp = int64(m) + 9
	}
	doy := (153*mp+2)/5 + int64(d) - 1     // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return era*146097 + doe - 719468       // shift epoch to 1970-01-01
}

// civilFromDays converts days since 1970-01-01 to a civil date.
func civilFromDays(z int64) (y, m, d int) {
	z += 719468
	var era int64
	if z >= 0 {
		era = z / 146097
	} else {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	yy := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100) // [0, 365]
	mp := (5*doy + 2) / 153                  // [0, 11]
	d = int(doy - (153*mp+2)/5 + 1)          // [1, 31]
	if mp < 10 {
		m = int(mp + 3)
	} else {
		m = int(mp - 9)
	}
	if m <= 2 {
		yy++
	}
	return int(yy), m, d
}

// Date constructs a Day from a civil year, month (1-12) and day of month.
// Out-of-range months or days are normalized arithmetically (as in
// time.Date), which the tests rely on for span arithmetic.
func Date(year, month, day int) Day {
	// Normalize month into [1,12], adjusting the year.
	y, m := year, month
	if m < 1 || m > 12 {
		y += (m - 1) / 12
		m = (m-1)%12 + 1
		if m < 1 {
			m += 12
			y--
		}
	}
	return Day(daysFromCivil(y, m, day))
}

// Civil returns the civil (year, month, day) of d.
func (d Day) Civil() (year, month, day int) { return civilFromDays(int64(d)) }

// Year returns the calendar year of d.
func (d Day) Year() int { y, _, _ := d.Civil(); return y }

// Weekday returns the ISO weekday of d: 1 = Monday ... 7 = Sunday.
func (d Day) Weekday() int {
	// 1970-01-01 was a Thursday (ISO weekday 4).
	w := (int64(d)%7 + 7) % 7 // 0 for Thursday
	return int((w+3)%7) + 1
}

// ISOWeek returns the ISO-8601 week-numbering year and week of d.
func (d Day) ISOWeek() (year, week int) {
	// Find the Thursday of d's ISO week; its calendar year is the ISO year.
	thursday := d + Day(4-d.Weekday())
	y := thursday.Year()
	jan1 := Date(y, 1, 1)
	week = int(thursday-jan1)/7 + 1
	return y, week
}

// String formats d as the paper writes day values, e.g. "1999/12/4".
func (d Day) String() string {
	y, m, dd := d.Civil()
	return fmt.Sprintf("%d/%d/%d", y, m, dd)
}

// MinYear and MaxYear bound the years accepted in time literals. Every
// period index encoding multiplies the year (by 12, by 4), so an
// unbounded year would overflow int64 and render as a negative literal
// the grammar cannot re-parse; a million years comfortably covers any
// warehouse clock while staying far from the overflow edge.
const (
	MinYear = 0
	MaxYear = 999999
)

// ParseDay parses "1999/12/4" (also accepting zero-padded components).
func ParseDay(s string) (Day, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 3 {
		return 0, fmt.Errorf("caltime: invalid day literal %q", s)
	}
	nums := make([]int, 3)
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil {
			return 0, fmt.Errorf("caltime: invalid day literal %q: %w", s, err)
		}
		nums[i] = n
	}
	y, m, dd := nums[0], nums[1], nums[2]
	if y < MinYear || y > MaxYear || m < 1 || m > 12 || dd < 1 || dd > 31 {
		return 0, fmt.Errorf("caltime: day literal %q out of range", s)
	}
	d := Date(y, m, dd)
	// Reject normalized overflow such as 1999/2/30.
	if ry, rm, rd := d.Civil(); ry != y || rm != m || rd != dd {
		return 0, fmt.Errorf("caltime: day literal %q is not a real date", s)
	}
	return d, nil
}

// Period identifies one calendar period at a given unit: a specific day,
// ISO week, month, quarter or year. Periods of the same unit are totally
// ordered by Index.
type Period struct {
	Unit  Unit
	Index int64
}

// PeriodOf returns the period of unit u containing day d.
//
// Index encodings: day = days since epoch; week = ISO weeks since the week
// containing the epoch; month = 12*year + (month-1); quarter = 4*year +
// (quarter-1); year = year.
func PeriodOf(d Day, u Unit) Period {
	switch u {
	case UnitDay:
		return Period{u, int64(d)}
	case UnitWeek:
		// Monday of d's ISO week, in weeks since the Monday on/before epoch.
		monday := int64(d) - int64(d.Weekday()-1)
		// Epoch (Thursday) belongs to the week whose Monday is day -3.
		return Period{u, (monday + 3) / 7}
	case UnitMonth:
		y, m, _ := d.Civil()
		return Period{u, int64(y)*12 + int64(m-1)}
	case UnitQuarter:
		y, m, _ := d.Civil()
		return Period{u, int64(y)*4 + int64((m-1)/3)}
	case UnitYear:
		return Period{u, int64(d.Year())}
	}
	panic(fmt.Sprintf("caltime: PeriodOf: bad unit %d", u))
}

// First returns the first day of the period.
func (p Period) First() Day {
	switch p.Unit {
	case UnitDay:
		return Day(p.Index)
	case UnitWeek:
		return Day(p.Index*7 - 3)
	case UnitMonth:
		y := p.Index / 12
		m := p.Index % 12
		if m < 0 {
			m += 12
			y--
		}
		return Date(int(y), int(m)+1, 1)
	case UnitQuarter:
		y := p.Index / 4
		q := p.Index % 4
		if q < 0 {
			q += 4
			y--
		}
		return Date(int(y), int(q)*3+1, 1)
	case UnitYear:
		return Date(int(p.Index), 1, 1)
	}
	panic(fmt.Sprintf("caltime: First: bad unit %d", p.Unit))
}

// Last returns the last day of the period.
func (p Period) Last() Day {
	return Period{p.Unit, p.Index + 1}.First() - 1
}

// Contains reports whether day d falls within the period.
func (p Period) Contains(d Day) bool { return PeriodOf(d, p.Unit).Index == p.Index }

// String formats the period as the paper writes time values:
// "1999/12/4" (day), "1999W48" (week), "1999/12" (month), "1999Q4"
// (quarter), "1999" (year).
func (p Period) String() string {
	switch p.Unit {
	case UnitDay:
		return Day(p.Index).String()
	case UnitWeek:
		y, w := p.First().ISOWeek()
		return fmt.Sprintf("%dW%d", y, w)
	case UnitMonth:
		f := p.First()
		y, m, _ := f.Civil()
		return fmt.Sprintf("%d/%d", y, m)
	case UnitQuarter:
		f := p.First()
		y, m, _ := f.Civil()
		return fmt.Sprintf("%dQ%d", y, (m-1)/3+1)
	case UnitYear:
		return strconv.FormatInt(p.Index, 10)
	}
	return fmt.Sprintf("Period{%d,%d}", p.Unit, p.Index)
}

// ParsePeriod parses a time literal in the paper's notation and returns
// the period along with its unit: "1999/12/4" (day), "1999W48" (week),
// "1999/12" (month), "1999Q4" (quarter), "1999" (year).
func ParsePeriod(s string) (Period, error) {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, 'W'); i > 0 {
		y, err1 := strconv.Atoi(s[:i])
		w, err2 := strconv.Atoi(s[i+1:])
		if err1 != nil || err2 != nil || y < MinYear || y > MaxYear || w < 1 || w > 53 {
			return Period{}, fmt.Errorf("caltime: invalid week literal %q", s)
		}
		// Week w of ISO year y: the week containing January 4th is week 1.
		jan4 := Date(y, 1, 4)
		week1 := PeriodOf(jan4, UnitWeek)
		p := Period{UnitWeek, week1.Index + int64(w-1)}
		if iy, iw := p.First().ISOWeek(); iy != y || iw != w {
			return Period{}, fmt.Errorf("caltime: week literal %q does not exist", s)
		}
		return p, nil
	}
	if i := strings.IndexByte(s, 'Q'); i > 0 {
		y, err1 := strconv.Atoi(s[:i])
		q, err2 := strconv.Atoi(s[i+1:])
		if err1 != nil || err2 != nil || y < MinYear || y > MaxYear || q < 1 || q > 4 {
			return Period{}, fmt.Errorf("caltime: invalid quarter literal %q", s)
		}
		return Period{UnitQuarter, int64(y)*4 + int64(q-1)}, nil
	}
	switch strings.Count(s, "/") {
	case 2:
		d, err := ParseDay(s)
		if err != nil {
			return Period{}, err
		}
		return Period{UnitDay, int64(d)}, nil
	case 1:
		parts := strings.SplitN(s, "/", 2)
		y, err1 := strconv.Atoi(parts[0])
		m, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || y < MinYear || y > MaxYear || m < 1 || m > 12 {
			return Period{}, fmt.Errorf("caltime: invalid month literal %q", s)
		}
		return Period{UnitMonth, int64(y)*12 + int64(m-1)}, nil
	case 0:
		y, err := strconv.Atoi(s)
		if err != nil || y < MinYear || y > MaxYear {
			return Period{}, fmt.Errorf("caltime: invalid time literal %q", s)
		}
		return Period{UnitYear, int64(y)}, nil
	}
	return Period{}, fmt.Errorf("caltime: invalid time literal %q", s)
}

// Span is an unanchored time interval such as "6 months" or "4 quarters"
// (set S in the paper's grammar, Table 1). Spans may be negative.
type Span struct {
	N    int64
	Unit Unit
}

// String formats the span, e.g. "6 months".
func (s Span) String() string {
	if s.N == 1 || s.N == -1 {
		return fmt.Sprintf("%d %s", s.N, s.Unit)
	}
	return fmt.Sprintf("%d %ss", s.N, s.Unit)
}

// AddSpan shifts day d by span s. Month-based units shift calendar-wise,
// clamping the day of month (1999/1/31 + 1 month = 1999/2/28), matching
// the usual data-warehouse interpretation of "6 months old".
func AddSpan(d Day, s Span) Day {
	switch s.Unit {
	case UnitDay:
		return d + Day(s.N)
	case UnitWeek:
		return d + Day(7*s.N)
	case UnitMonth, UnitQuarter, UnitYear:
		factor := int64(1)
		switch s.Unit {
		case UnitQuarter:
			factor = 3
		case UnitYear:
			factor = 12
		}
		y, m, dd := d.Civil()
		total := int64(y)*12 + int64(m-1) + s.N*factor
		ny := total / 12
		nm := total % 12
		if nm < 0 {
			nm += 12
			ny--
		}
		// Clamp the day of month.
		last := Period{UnitMonth, ny*12 + nm}.Last()
		_, _, lastDOM := last.Civil()
		if dd > lastDOM {
			dd = lastDOM
		}
		return Date(int(ny), int(nm)+1, dd)
	}
	panic(fmt.Sprintf("caltime: AddSpan: bad unit %d", s.Unit))
}

// SubSpan shifts day d backwards by span s.
func SubSpan(d Day, s Span) Day { return AddSpan(d, Span{-s.N, s.Unit}) }

// MaxSpanDays returns a safe upper bound, in days, on the magnitude of the
// span. It is used by the soundness decision procedure to bound the time
// horizon over which NOW-relative predicates must be examined.
func (s Span) MaxSpanDays() int64 {
	n := s.N
	if n < 0 {
		n = -n
	}
	switch s.Unit {
	case UnitDay:
		return n
	case UnitWeek:
		return n * 7
	case UnitMonth:
		return n*31 + 31
	case UnitQuarter:
		return n*92 + 92
	case UnitYear:
		return n*366 + 366
	}
	return n * 366
}
