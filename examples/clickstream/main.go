// Clickstream walks through the paper's running example end to end: the
// Appendix A multidimensional object, the specification {a1, a2}
// (Eq. 4-5), the Figure 3 snapshots, and the Section 6 queries on the
// reduced object.
//
//	go run ./examples/clickstream
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"

	"dimred"
)

func main() {
	p, err := dimred.PaperMO()
	if err != nil {
		log.Fatal(err)
	}
	env, err := dimred.NewEnv(p.Schema, "Time", p.Time)
	if err != nil {
		log.Fatal(err)
	}
	// The paper's a1 and a2: aggregate 6-to-12-month-old .com clicks to
	// (month, domain), older ones to (quarter, domain).
	a1, err := dimred.CompileAction("a1",
		`aggregate [Time.month, URL.domain] where URL.domain_grp = ".com" and NOW - 12 months < Time.month and Time.month <= NOW - 6 months`, env)
	if err != nil {
		log.Fatal(err)
	}
	a2, err := dimred.CompileAction("a2",
		`aggregate [Time.quarter, URL.domain] where URL.domain_grp = ".com" and Time.quarter <= NOW - 4 quarters`, env)
	if err != nil {
		log.Fatal(err)
	}
	sp, err := dimred.NewSpec(env, a1, a2)
	if err != nil {
		log.Fatal(err)
	}

	// Figure 3: the reduced MO at three times.
	for _, at := range []string{"2000/4/5", "2000/6/5", "2000/11/5"} {
		t, err := dimred.ParseDay(at)
		if err != nil {
			log.Fatal(err)
		}
		res, err := dimred.Reduce(sp, p.MO, t)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("reduced MO at %s (%d facts):\n%s\n", at, res.MO.Len(), res.MO.Dump())
	}

	// Section 6 queries on the reduced MO at 2000/11/5.
	t, _ := dimred.ParseDay("2000/11/5")
	res, err := dimred.Reduce(sp, p.MO, t)
	if err != nil {
		log.Fatal(err)
	}
	red := res.MO

	// Selection: who is known to satisfy "week <= 1999W48"? Nobody —
	// the quarter facts include 1999/12/31.
	pred, err := dimred.ParsePredicate(`Time.week <= 1999W48`, env)
	if err != nil {
		log.Fatal(err)
	}
	cons, err := dimred.Select(red, pred, t, dimred.Conservative)
	if err != nil {
		log.Fatal(err)
	}
	lib, err := dimred.Select(red, pred, t, dimred.Liberal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("σ[Time.week <= 1999W48]: conservative %d facts, liberal %d facts\n\n",
		cons.Len(), lib.Len())

	// Projection (Figure 4).
	proj, err := dimred.Project(red, []string{"URL"}, []string{"Number_of", "Dwell_time"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("π[URL][Number_of, Dwell_time]:\n%s\n", proj.Dump())

	// Aggregate formation (Figure 5): the quarter facts stay at their
	// own granularity under the availability approach.
	g, err := env.Schema.ParseGranularity([]string{"Time.month", "URL.domain"})
	if err != nil {
		log.Fatal(err)
	}
	agg, err := dimred.Aggregate(red, g, dimred.Availability)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("α[Time.month, URL.domain] (availability):\n%s\n", agg.Dump())

	// Provenance: why is fact_1's data at quarter level? Res.Prov is a
	// map, so walk it in fact order to print the same text every run.
	for _, nf := range slices.Sorted(maps.Keys(res.Prov)) {
		for i, a := range res.Prov[nf].Responsible {
			if a != nil {
				fmt.Printf("%s: dimension %s aggregated by action %s\n",
					red.Name(nf), env.Schema.Dims[i].Name(), a.Name())
			}
		}
	}
}
