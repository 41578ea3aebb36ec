// Command dimred is a small CLI over the library:
//
//	dimred demo
//	    walk through the paper's running example
//	dimred check -action '...' [-action '...']
//	    compile a specification and verify NonCrossing and Growing,
//	    printing the subcube layout it would produce
//	dimred simulate -days 365 -rate 200 [-action '...'] [-at 2001/6/1 ...]
//	    run a synthetic click-stream under a specification and print the
//	    storage trajectory
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dimred"
	"dimred/internal/caltime"
	"dimred/internal/spec"
	"dimred/internal/subcube"
	"dimred/internal/workload"
)

type actionList []string

func (a *actionList) String() string     { return strings.Join(*a, "; ") }
func (a *actionList) Set(s string) error { *a = append(*a, s); return nil }

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "demo":
		err = runDemo()
	case "check":
		err = runCheck(os.Args[2:])
	case "simulate":
		err = runSimulate(os.Args[2:])
	case "load":
		err = runLoad(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "stats":
		err = runStats(os.Args[2:])
	case "explain":
		err = runExplain(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "dimred: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dimred: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dimred <command> [flags]

commands:
  demo       walk through the paper's running example
  check      verify a specification and print its subcube layout
  simulate   run a synthetic click-stream under a specification
  load       ingest a click CSV and write a warehouse snapshot
  query      evaluate a query against a snapshot
  stats      report a snapshot's storage state and engine metrics
  explain    report why a cell is aggregated the way it is`)
}

func runDemo() error {
	p, err := dimred.PaperMO()
	if err != nil {
		return err
	}
	env, err := dimred.NewEnv(p.Schema, "Time", p.Time)
	if err != nil {
		return err
	}
	a1, err := dimred.CompileAction("a1",
		`aggregate [Time.month, URL.domain] where URL.domain_grp = ".com" and NOW - 12 months < Time.month and Time.month <= NOW - 6 months`, env)
	if err != nil {
		return err
	}
	a2, err := dimred.CompileAction("a2",
		`aggregate [Time.quarter, URL.domain] where URL.domain_grp = ".com" and Time.quarter <= NOW - 4 quarters`, env)
	if err != nil {
		return err
	}
	sp, err := dimred.NewSpec(env, a1, a2)
	if err != nil {
		return err
	}
	fmt.Println("the paper's ISP example (Appendix A) under {a1, a2}:")
	for _, at := range []string{"2000/4/5", "2000/6/5", "2000/11/5"} {
		t, err := dimred.ParseDay(at)
		if err != nil {
			return err
		}
		res, err := dimred.Reduce(sp, p.MO, t)
		if err != nil {
			return err
		}
		fmt.Printf("\nat %s — %d facts:\n%s", at, res.MO.Len(), res.MO.Dump())
	}
	return nil
}

// clickEnv builds a fresh click-stream environment and compiles the
// given (or default) actions against it.
func clickEnv(srcs []string) (*workload.ClickObject, *spec.Env, []*spec.Action, error) {
	obj, err := workload.NewClickSchema()
	if err != nil {
		return nil, nil, nil, err
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(srcs) == 0 {
		srcs = []string{
			`aggregate [Time.month, URL.domain] where Time.month <= NOW - 3 months`,
			`aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`,
		}
	}
	var actions []*spec.Action
	for i, src := range srcs {
		a, err := spec.CompileString(fmt.Sprintf("a%d", i+1), src, env)
		if err != nil {
			return nil, nil, nil, err
		}
		actions = append(actions, a)
	}
	return obj, env, actions, nil
}

func runCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	var srcs actionList
	fs.Var(&srcs, "action", "action in concrete syntax (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, env, actions, err := clickEnv(srcs)
	if err != nil {
		return err
	}
	for _, a := range actions {
		growing := "growing"
		if !a.Growing() {
			growing = "not growing by itself (needs cover)"
		}
		fmt.Printf("%s\n  targets %s, %s\n", a, a.DescribeTargets(), growing)
	}
	sp, err := spec.New(env, actions...)
	if err != nil {
		return err
	}
	fmt.Println("specification is NonCrossing and Growing: ok")
	cs, err := subcube.New(sp)
	if err != nil {
		return err
	}
	fmt.Println("\nsubcube layout:")
	fmt.Print(cs.Describe())
	return nil
}

func runSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	var srcs actionList
	fs.Var(&srcs, "action", "action in concrete syntax (repeatable)")
	days := fs.Int("days", 365, "days of click-stream")
	rate := fs.Int("rate", 200, "clicks per day")
	seed := fs.Int64("seed", 1, "generator seed")
	start := fs.String("start", "2000/1/1", "first day")
	metrics := fs.Bool("metrics", false, "print the engine metrics after the run")
	var ats actionList
	fs.Var(&ats, "at", "report storage as of this day (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	obj, env, actions, err := clickEnv(srcs)
	if err != nil {
		return err
	}
	startDay, err := caltime.ParseDay(*start)
	if err != nil {
		return err
	}
	w, err := dimred.Open(env, actions...)
	if err != nil {
		return err
	}
	if err := w.AdvanceTo(startDay); err != nil {
		return err
	}
	cfg := workload.ClickConfig{Seed: *seed, Start: startDay, Days: *days, ClicksPerDay: *rate}
	err = w.LoadBatch(func(load func([]dimred.ValueID, []float64) error) error {
		return workload.GenerateClicks(cfg, func(c workload.Click) error {
			refs, meas, err := obj.Row(c)
			if err != nil {
				return err
			}
			return load(refs, meas)
		})
	})
	if err != nil {
		return err
	}
	if len(ats) == 0 {
		end := startDay + caltime.Day(*days)
		ats = actionList{
			end.String(),
			caltime.AddSpan(end, caltime.Span{N: 6, Unit: caltime.UnitMonth}).String(),
			caltime.AddSpan(end, caltime.Span{N: 2, Unit: caltime.UnitYear}).String(),
		}
	}
	for _, at := range ats {
		t, err := caltime.ParseDay(at)
		if err != nil {
			return err
		}
		// AdvanceTo never moves the clock back, so a report for an earlier
		// day would print the later day's storage under its name.
		if now := w.Now(); t < now {
			return fmt.Errorf("simulate: -at %s is before the warehouse clock %s, which never runs backwards", at, now)
		}
		if err := w.AdvanceTo(t); err != nil {
			return err
		}
		fmt.Printf("as of %s:\n%s\n", at, w.Stats())
	}
	if *metrics {
		fmt.Printf("metrics:\n%s", w.Metrics())
	}
	return nil
}
