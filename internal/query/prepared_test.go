package query

import (
	"fmt"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/spec"
	"dimred/internal/workload"
)

// TestPreparedVerdictsMatchDirect pins the verdicts a Prepared remembers
// per dimension value to Definition 5 evaluated from scratch: for every
// operator on every time category (against literals, unpopulated
// literals and NOW-relative bounds), for =, !=, in and not in on the
// unordered URL categories, and for compounds that put several atoms and
// disjuncts into one Prepared, one instance walked over every value of
// both dimensions — forward, then backward, so each answer is also read
// back from the memo — agrees on every cell with a fresh
// Predicate.EvaluateCell, and atom by atom with the comparison itself.
func TestPreparedVerdictsMatchDirect(t *testing.T) {
	obj, err := workload.BuildClickMO(workload.ClickConfig{
		Seed: 9, Start: caltime.Date(2000, 1, 1), Days: 150,
		ClicksPerDay: 6, Domains: 6, URLsPerDomain: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	at := caltime.Date(2000, 5, 20)
	timeDim, urlDim := obj.Time.Dimension, obj.URL.Dimension

	var srcs []string
	for _, c := range []struct{ cat, lit, far, unit string }{
		{"day", "2000/3/15", "2003/7/1", "days"},
		{"week", "2000W11", "2003W20", "weeks"},
		{"month", "2000/3", "2003/7", "months"},
		{"quarter", "2000Q1", "2003Q3", "quarters"},
		{"year", "2000", "2003", "years"},
	} {
		for _, op := range []string{"<", "<=", "=", "!=", ">=", ">"} {
			srcs = append(srcs,
				fmt.Sprintf(`Time.%s %s %s`, c.cat, op, c.lit),
				fmt.Sprintf(`Time.%s %s %s`, c.cat, op, c.far), // not populated: the calendar range stands in
				fmt.Sprintf(`Time.%s %s NOW - 2 %s`, c.cat, op, c.unit))
		}
		srcs = append(srcs,
			fmt.Sprintf(`Time.%s in {%s, NOW - 1 %s}`, c.cat, c.lit, c.unit),
			fmt.Sprintf(`Time.%s not in {%s, %s}`, c.cat, c.lit, c.far))
	}
	for _, cat := range []mdm.CategoryID{obj.URL.URL, obj.URL.Domain, obj.URL.Group} {
		name := urlDim.Category(cat).Name
		vals := urlDim.ValuesIn(cat)
		a, b := urlDim.ValueName(vals[0]), urlDim.ValueName(vals[len(vals)-1])
		srcs = append(srcs,
			fmt.Sprintf(`URL.%s = %q`, name, a),
			fmt.Sprintf(`URL.%s != %q`, name, a),
			fmt.Sprintf(`URL.%s = "no such value"`, name),
			fmt.Sprintf(`URL.%s in {%q, %q}`, name, a, b),
			fmt.Sprintf(`URL.%s not in {%q, %q}`, name, a, b))
	}
	group := urlDim.ValueName(urlDim.ValuesIn(obj.URL.Group)[0])
	srcs = append(srcs,
		fmt.Sprintf(`URL.domain_grp = %q and NOW - 3 months < Time.month and Time.day <= 2000/4/10`, group),
		fmt.Sprintf(`Time.week <= 2000W9 or URL.domain_grp != %q or Time.quarter = 2000Q2`, group),
		fmt.Sprintf(`not (Time.month <= 2000/2 and URL.domain_grp = %q)`, group),
		`2000/2/10 <= Time.day and Time.month <= 2000/3`, // two atoms on one dimension
		`true`, `false`)

	// Every value of one dimension beside a few of the other.
	var cells [][]mdm.ValueID
	for v := 0; v < timeDim.NumValues(); v++ {
		cells = append(cells, []mdm.ValueID{mdm.ValueID(v), mdm.ValueID(v % urlDim.NumValues())})
	}
	for v := 0; v < urlDim.NumValues(); v++ {
		cells = append(cells, []mdm.ValueID{mdm.ValueID((v * 7) % timeDim.NumValues()), mdm.ValueID(v)})
	}

	for _, src := range srcs {
		p, err := ParsePred(src, env)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		prep := p.Prepare(at)
		check := func(cell []mdm.ValueID) {
			cons, lib, w := prep.EvaluateCell(cell)
			wantCons, wantLib, wantW := p.EvaluateCell(cell, at)
			if cons != wantCons || lib != wantLib || w != wantW {
				t.Fatalf("%s on (%s, %s): remembered %v/%v/%v, direct %v/%v/%v", src,
					timeDim.ValueName(cell[0]), urlDim.ValueName(cell[1]), cons, lib, w, wantCons, wantLib, wantW)
			}
			// Atom by atom too, against the comparison itself: a fresh
			// Prepared fills a memo of its own while it evaluates.
			for d, dj := range p.disjuncts {
				for i := range dj {
					if dj[i].Dim < 0 {
						continue
					}
					cons, lib, w := prep.evalTest(d, i, cell)
					wantCons, wantLib, wantW := p.Prepare(at).compare(d, i, &dj[i], cell[dj[i].Dim])
					if cons != wantCons || lib != wantLib || w != wantW {
						t.Fatalf("%s, disjunct %d atom %d on (%s, %s): remembered %v/%v/%v, compared %v/%v/%v", src, d, i,
							timeDim.ValueName(cell[0]), urlDim.ValueName(cell[1]), cons, lib, w, wantCons, wantLib, wantW)
					}
				}
			}
		}
		for _, cell := range cells {
			check(cell)
		}
		for i := len(cells) - 1; i >= 0; i-- {
			check(cells[i])
		}
	}
}
