package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"dimred"
	"dimred/internal/caltime"
	"dimred/internal/warehouse"
	"dimred/internal/workload"
)

// runLoad ingests a click-stream CSV (day,url,dwell,delivery,size_kb —
// header optional) into a fresh warehouse under the given actions and
// writes a snapshot.
//
//	dimred load -csv clicks.csv -out wh.snapshot [-action '...'] [-now 2001/1/1]
func runLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	csvPath := fs.String("csv", "", "input click CSV (day,url,dwell,delivery,size_kb)")
	outPath := fs.String("out", "warehouse.snapshot", "snapshot output path")
	nowStr := fs.String("now", "", "warehouse clock after loading (default: last day seen)")
	var srcs actionList
	fs.Var(&srcs, "action", "action in concrete syntax (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *csvPath == "" {
		return fmt.Errorf("load: -csv is required")
	}
	obj, env, actions, err := clickEnv(srcs)
	if err != nil {
		return err
	}
	w, err := dimred.Open(env, actions...)
	if err != nil {
		return err
	}

	f, err := os.Open(*csvPath)
	if err != nil {
		return err
	}
	defer f.Close()

	var lastDay caltime.Day
	count := 0
	err = w.LoadBatch(func(load func([]dimred.ValueID, []float64) error) error {
		r := csv.NewReader(f)
		r.FieldsPerRecord = 5
		for {
			rec, err := r.Read()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return fmt.Errorf("load: %w", err)
			}
			day, err := caltime.ParseDay(rec[0])
			if err != nil {
				if count == 0 {
					continue // tolerate a header row
				}
				return fmt.Errorf("load: row %d: %w", count+1, err)
			}
			click := workload.Click{Day: day, URL: rec[1]}
			if click.Dwell, err = strconv.ParseFloat(rec[2], 64); err != nil {
				return fmt.Errorf("load: row %d: dwell: %w", count+1, err)
			}
			if click.Delivery, err = strconv.ParseFloat(rec[3], 64); err != nil {
				return fmt.Errorf("load: row %d: delivery: %w", count+1, err)
			}
			if click.SizeKB, err = strconv.ParseFloat(rec[4], 64); err != nil {
				return fmt.Errorf("load: row %d: size: %w", count+1, err)
			}
			refs, meas, err := obj.Row(click)
			if err != nil {
				return err
			}
			if err := load(refs, meas); err != nil {
				return err
			}
			if day > lastDay {
				lastDay = day
			}
			count++
		}
	})
	if err != nil {
		return err
	}
	now := lastDay
	if *nowStr != "" {
		if now, err = caltime.ParseDay(*nowStr); err != nil {
			return err
		}
	}
	if err := w.AdvanceTo(now); err != nil {
		return err
	}
	out, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := w.Save(out); err != nil {
		return err
	}
	fmt.Printf("loaded %d clicks; clock %s; snapshot written to %s\n", count, now, *outPath)
	fmt.Print(w.Stats())
	return out.Close()
}

// runExplain reports why a cell is aggregated the way it is, against a
// snapshot:
//
//	dimred explain -snapshot wh.snapshot -day 2000/1/5 -url http://...
func runExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	snapPath := fs.String("snapshot", "warehouse.snapshot", "snapshot to inspect")
	dayStr := fs.String("day", "", "the cell's day, e.g. 2000/1/5")
	urlStr := fs.String("url", "", "the cell's url")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dayStr == "" || *urlStr == "" {
		return fmt.Errorf("explain: -day and -url are required")
	}
	f, err := os.Open(*snapPath)
	if err != nil {
		return err
	}
	defer f.Close()
	w, ld, err := warehouse.Load(f)
	if err != nil {
		return err
	}
	if ld.Time == nil {
		return fmt.Errorf("explain: snapshot has no time dimension")
	}
	d, err := caltime.ParseDay(*dayStr)
	if err != nil {
		return err
	}
	dv, ok := ld.Time.DayValue(d)
	if !ok {
		return fmt.Errorf("explain: day %s not present in the warehouse", *dayStr)
	}
	urlDim, ok := ld.ByName["URL"]
	if !ok {
		return fmt.Errorf("explain: snapshot has no URL dimension")
	}
	urlCat, _ := urlDim.CategoryByName("url")
	uv, ok := urlDim.ValueByName(urlCat, *urlStr)
	if !ok {
		return fmt.Errorf("explain: url %q not present in the warehouse", *urlStr)
	}
	out, err := w.Explain([]dimred.ValueID{dv, uv})
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

// runQuery evaluates a query against a snapshot:
//
//	dimred query -snapshot wh.snapshot 'aggregate [Time.month, URL.domain_grp]' [-at 2001/6/1] [-trace]
func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	snapPath := fs.String("snapshot", "warehouse.snapshot", "snapshot to query")
	atStr := fs.String("at", "", "query time (default: the snapshot's clock)")
	trace := fs.Bool("trace", false, "print the query's execution trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("query: exactly one query expected, e.g. 'aggregate [Time.month, URL.domain_grp]'")
	}
	f, err := os.Open(*snapPath)
	if err != nil {
		return err
	}
	defer f.Close()
	w, _, err := warehouse.Load(f)
	if err != nil {
		return err
	}
	at := w.Now()
	if *atStr != "" {
		if at, err = caltime.ParseDay(*atStr); err != nil {
			return err
		}
	}
	q, err := dimred.ParseQuery(fs.Arg(0), w.Env())
	if err != nil {
		return err
	}
	if *trace {
		res, tr, err := w.QueryAtTraced(q, at)
		if err != nil {
			return err
		}
		tr.Query = fs.Arg(0)
		fmt.Print(res.Dump())
		fmt.Printf("\ntrace:\n%s", tr)
		return nil
	}
	res, err := w.QueryAt(q, at)
	if err != nil {
		return err
	}
	fmt.Print(res.Dump())
	return nil
}
