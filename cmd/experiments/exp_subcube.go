package main

import (
	"fmt"
	"io"

	"dimred/internal/dims"
	"dimred/internal/mdm"
	"dimred/internal/spec"
	"dimred/internal/subcube"
)

// section71 builds the Section 7.1 spec {a1, a2, a3} and its cube set
// over the paper MO.
func section71() (*dims.PaperObject, *spec.Spec, *subcube.CubeSet, error) {
	p, env, err := paperSetup()
	if err != nil {
		return nil, nil, nil, err
	}
	a1, err := spec.CompileString("a1", srcA1, env)
	if err != nil {
		return nil, nil, nil, err
	}
	a2, err := spec.CompileString("a2", srcA2, env)
	if err != nil {
		return nil, nil, nil, err
	}
	a3, err := spec.CompileString("a3", srcA3, env)
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := spec.New(env, a1, a2, a3)
	if err != nil {
		return nil, nil, nil, err
	}
	cs, err := subcube.New(s)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := cs.InsertMO(p.MO); err != nil {
		return nil, nil, nil, err
	}
	return p, s, cs, nil
}

// figure78 builds the Figure 7/8 configuration (five subcubes, the
// paper's facts plus fact_7..fact_10).
func figure78() (*dims.PaperObject, *spec.Spec, *subcube.CubeSet, error) {
	p, env, err := paperSetup()
	if err != nil {
		return nil, nil, nil, err
	}
	actions := []struct{ name, src string }{
		{"cA", `aggregate [Time.month, URL.domain] where URL.domain = "cnn.com" and NOW - 4 quarters < Time.quarter and Time.month <= NOW - 6 months`},
		{"cB", `aggregate [Time.month, URL.url] where URL.domain = "amazon.com" and NOW - 4 quarters < Time.quarter and Time.month <= NOW - 6 months`},
		{"cC", `aggregate [Time.quarter, URL.domain_grp] where URL.domain_grp = ".com" and Time.quarter <= NOW - 4 quarters`},
		{"cD", `aggregate [Time.week, URL.domain] where URL.domain = "gatech.edu" and Time.week <= NOW - 36 weeks`},
	}
	var compiled []*spec.Action
	for _, a := range actions {
		c, err := spec.CompileString(a.name, a.src, env)
		if err != nil {
			return nil, nil, nil, err
		}
		compiled = append(compiled, c)
	}
	s, err := spec.New(env, compiled...)
	if err != nil {
		return nil, nil, nil, err
	}
	cs, err := subcube.New(s)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := cs.InsertMO(p.MO); err != nil {
		return nil, nil, nil, err
	}
	extra := []struct {
		day, url string
		dwell    float64
	}{
		{"2000/5/7", "http://www.cnn.com/health", 100},
		{"2000/7/8", "http://www.cc.gatech.edu/", 200},
		{"2000/1/10", dims.PaperURLs[3], 300},
		{"2000/4/12", "http://www.cnn.com/", 400},
	}
	for _, e := range extra {
		dv := p.Time.EnsureDay(day(e.day))
		uv, err := p.URL.EnsureURL(e.url)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := cs.Insert([]mdm.ValueID{dv, uv}, []float64{1, e.dwell, 1, 10}); err != nil {
			return nil, nil, nil, err
		}
	}
	return p, s, cs, nil
}

func runE12(w io.Writer) error {
	_, _, cs, err := section71()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Section 7.1 subcube layout (Eq. 41-44 as include/exclude sets):")
	fmt.Fprint(w, cs.Describe())
	fmt.Fprintln(w, "paper: a_bottom is the parent of a1' and a3; a1' is the parent of a2")
	return nil
}

func dumpCubes(w io.Writer, s *spec.Spec, cs *subcube.CubeSet) error {
	for _, c := range cs.Cubes() {
		mo, err := c.MO(s.Env().Schema)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "K%d %s: %d rows\n", c.ID(), s.Env().Schema.GranString(c.Gran()), c.Rows())
		if mo.Len() > 0 && mo.Len() <= 12 {
			fmt.Fprint(w, mo.Dump())
		}
	}
	return nil
}

func runE13(w io.Writer) error {
	_, s, cs, err := figure78()
	if err != nil {
		return err
	}
	if _, err := cs.Sync(day("2000/12/5")); err != nil {
		return err
	}
	fmt.Fprintln(w, "synchronized at 2000/12/5 (Figure 7, upper half):")
	if err := dumpCubes(w, s, cs); err != nil {
		return err
	}
	moved, err := cs.Sync(day("2001/1/5"))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nafter one month (2001/1/5): %d rows migrated (Figure 7, lower half):\n", moved)
	if err := dumpCubes(w, s, cs); err != nil {
		return err
	}
	fmt.Fprintln(w, "paper: fact_45 and fact_9 aggregate into K2 as fact_459 (2000Q1, .com)")
	return nil
}

func runE14(w io.Writer) error {
	_, s, cs, err := figure78()
	if err != nil {
		return err
	}
	at := day("2000/10/20")
	if _, err := cs.Sync(at); err != nil {
		return err
	}
	q, err := subcube.ParseQuery(
		`aggregate [Time.month, URL.domain_grp] where 1999/6 < Time.month and Time.month <= 2000/5`, s.Env())
	if err != nil {
		return err
	}
	res, err := cs.Evaluate(q, at)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Q = α[month, domain_grp](σ[1999/6 < month <= 2000/5](O)) at 2000/10/20")
	fmt.Fprintln(w, "evaluated per subcube in parallel, combined by a final aggregation:")
	fmt.Fprint(w, res.Dump())
	fmt.Fprintln(w, "paper (Figure 8, S5): fact_0312 (1999Q4, .com), fact_459 (2000/1, .com),")
	fmt.Fprintln(w, "fact_10 (2000/4, .com), fact_7 (2000/5, .com), fact_6 (2000/1, .edu)")
	return nil
}

func runE15(w io.Writer) error {
	_, s, cs, err := figure78()
	if err != nil {
		return err
	}
	if _, err := cs.Sync(day("2000/10/20")); err != nil {
		return err
	}
	at := day("2001/1/20")
	q, err := subcube.ParseQuery(
		`aggregate [Time.month, URL.domain_grp] where 1999/6 < Time.month and Time.month <= 2000/5`, s.Env())
	if err != nil {
		return err
	}
	stale, err := cs.Evaluate(q, at)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "query at 2001/1/20 with cubes last synchronized at 2000/10/20")
	fmt.Fprintln(w, "(un-synchronized evaluation: each cube's rows rolled up to their current level, Figure 9):")
	fmt.Fprint(w, stale.Dump())
	if _, err := cs.Sync(at); err != nil {
		return err
	}
	fresh, err := cs.Evaluate(q, at)
	if err != nil {
		return err
	}
	match := "MATCH"
	if canonMO(stale) != canonMO(fresh) {
		match = "MISMATCH"
	}
	fmt.Fprintf(w, "against a freshly synchronized evaluation: %s\n", match)
	return nil
}

// canonMO renders an MO's cells and measures, ignoring fact names, for
// result comparison.
func canonMO(mo *mdm.MO) string {
	lines := make([]string, 0, mo.Len())
	for f := 0; f < mo.Len(); f++ {
		fid := mdm.FactID(f)
		line := mo.CellString(fid)
		for j := range mo.Schema().Measures {
			line += fmt.Sprintf("|%v", mo.Measure(fid, j))
		}
		lines = append(lines, line)
	}
	sortStrings(lines)
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
