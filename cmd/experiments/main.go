// Command experiments regenerates every table and figure of the paper
// (E01-E16) and measures its quantitative claims (S1-S6). Run with no
// flags for everything, -list to enumerate, or -exp E06 for one.
//
// The paper has no empirical evaluation section; its artifacts are the
// grammar, the running example and architecture illustrations, all of
// which are regenerated here as executable experiments (see DESIGN.md
// section 5 and EXPERIMENTS.md for the index).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

type experiment struct {
	id    string
	title string
	run   func(io.Writer) error
}

var experiments = []experiment{
	{"E01", "Table 2 + Figure 1: the example MO", runE01},
	{"E02", "Eq. 4-5: actions a1, a2 and the <=_V order", runE02},
	{"E03", "Section 4.2: auxiliary functions on fact_1", runE03},
	{"E04", "Section 4.3: NonCrossing counterexamples", runE04},
	{"E05", "Figure 2: Growing violation and its repair", runE05},
	{"E06", "Figure 3: three snapshots of the reduced MO", runE06},
	{"E07", "Section 6.1: selection Q1-Q3 and Definition 5", runE07},
	{"E08", "Figure 4: projection onto URL", runE08},
	{"E09", "Figure 5: aggregate formation Q4/Q5 and Group_high", runE09},
	{"E10", "Section 5.1: deleting a7 after inserting a8", runE10},
	{"E11", "Section 5.3: the Eq. 24-29 Growing proof", runE11},
	{"E12", "Section 7.1: disjoint actions and the subcube DAG", runE12},
	{"E13", "Figure 7: synchronization across a month boundary", runE13},
	{"E14", "Figure 8: parallel query plan over 5 subcubes", runE14},
	{"E15", "Figure 9: querying in the un-synchronized state", runE15},
	{"E16", "Table 1: the action-specification grammar", runE16},
	{"S1", "Claim: facts dominate warehouse storage (~95%)", runS1},
	{"S2", "Claim: huge storage gains with retention (vs baselines)", runS2},
	{"S3", "Claim: per-subcube parallel query evaluation", runS3},
	{"S4", "Claim: bulk-load synchronization is not a bottleneck", runS4},
	{"S5", "Subcube engine == Definition 2 semantics", runS5},
	{"S6", "Observability: metrics snapshot + query trace", runS6},
}

func main() {
	exp := flag.String("exp", "", "run a single experiment by id (e.g. E06)")
	list := flag.Bool("list", false, "list experiments")
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return
	}
	ids := map[string]experiment{}
	for _, e := range experiments {
		ids[e.id] = e
	}
	if *exp != "" {
		e, ok := ids[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		if err := runOne(os.Stdout, e); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		return
	}
	for _, e := range experiments {
		if err := runOne(os.Stdout, e); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.id, err)
			os.Exit(1)
		}
	}
}

// runOne writes one experiment's block of the output: a header line, the
// experiment's output and a blank line.
func runOne(w io.Writer, e experiment) error {
	fmt.Fprintf(w, "==== %s: %s ====\n", e.id, e.title)
	if err := e.run(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}
