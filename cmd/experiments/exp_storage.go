package main

import (
	"fmt"
	"io"
	"time"

	"dimred/internal/baseline"
	"dimred/internal/caltime"
	"dimred/internal/core"
	"dimred/internal/mdm"
	"dimred/internal/query"
	"dimred/internal/spec"
	"dimred/internal/storage"
	"dimred/internal/subcube"
	"dimred/internal/workload"
)

// clickStream builds a click-stream environment and returns the context,
// the generated rows and the per-measure grand totals.
func clickStream(days, perDay int) (baseline.Context, *spec.Env, [][2]interface{}, []float64, error) {
	obj, err := workload.NewClickSchema()
	if err != nil {
		return baseline.Context{}, nil, nil, nil, err
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		return baseline.Context{}, nil, nil, nil, err
	}
	cfg := workload.ClickConfig{
		Seed: 1, Start: caltime.Date(2000, 1, 1), Days: days,
		ClicksPerDay: perDay, Domains: 40, URLsPerDomain: 12,
	}
	var rows [][2]interface{}
	totals := make([]float64, len(obj.Schema.Measures))
	err = workload.GenerateClicks(cfg, func(c workload.Click) error {
		refs, meas, err := obj.Row(c)
		if err != nil {
			return err
		}
		rows = append(rows, [2]interface{}{refs, meas})
		for j, v := range meas {
			totals[j] += v
		}
		return nil
	})
	if err != nil {
		return baseline.Context{}, nil, nil, nil, err
	}
	ctx := baseline.Context{Schema: obj.Schema, TimeIdx: 0, Time: obj.Time}
	return ctx, env, rows, totals, nil
}

func runS1(w io.Writer) error {
	ctx, _, rows, _, err := clickStream(365, 400)
	if err != nil {
		return err
	}
	s := baseline.NewNoReduction(ctx)
	for _, r := range rows {
		if err := s.Load(r[0].([]mdm.ValueID), r[1].([]float64)); err != nil {
			return err
		}
	}
	factBytes := s.Bytes()
	var dimBytes int64
	for _, d := range ctx.Schema.Dims {
		dimBytes += storage.DimensionBytes(d)
	}
	share := float64(factBytes) / float64(factBytes+dimBytes)
	fmt.Fprintf(w, "click-stream, %d facts over 365 days, %d urls:\n", len(rows),
		len(ctx.Schema.Dims[1].ValuesIn(ctx.Schema.Dims[1].Bottom())))
	fmt.Fprintf(w, "fact table bytes:      %d\n", factBytes)
	fmt.Fprintf(w, "dimension table bytes: %d\n", dimBytes)
	fmt.Fprintf(w, "fact share of storage: %.1f%%  (paper Section 4: \"facts typically\n", 100*share)
	fmt.Fprintln(w, "take up 95% of the total data warehouse storage\")")
	return nil
}

func runS2(w io.Writer) error {
	ctx, env, rows, totals, err := clickStream(730, 150)
	if err != nil {
		return err
	}
	// The intro's policy: detail for 6 months, monthly for 3 years,
	// yearly beyond (scaled to the 2-year stream: month after 3 months,
	// quarter after 1 year).
	a1, err := spec.CompileString("to-month",
		`aggregate [Time.month, URL.domain] where Time.month <= NOW - 3 months`, env)
	if err != nil {
		return err
	}
	a2, err := spec.CompileString("to-quarter",
		`aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`, env)
	if err != nil {
		return err
	}
	sp, err := spec.New(env, a1, a2)
	if err != nil {
		return err
	}
	red, err := baseline.NewSpecReduction(sp)
	if err != nil {
		return err
	}
	viewGran, err := ctx.Schema.ParseGranularity([]string{"Time.month", "URL.domain"})
	if err != nil {
		return err
	}
	strategies := []baseline.Strategy{
		baseline.NewNoReduction(ctx),
		baseline.NewAgeDeletion(ctx, caltime.Span{N: 3, Unit: caltime.UnitMonth}),
		baseline.NewViewExpire(ctx, viewGran, caltime.Span{N: 3, Unit: caltime.UnitMonth}),
		red,
	}
	for _, s := range strategies {
		for _, r := range rows {
			if err := s.Load(r[0].([]mdm.ValueID), r[1].([]float64)); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(w, "%d clicks over 24 months; aging to 2002/6/1 under each strategy:\n", len(rows))
	fmt.Fprintf(w, "%-22s %10s %12s %14s %10s\n", "strategy", "rows", "bytes", "dwell total", "lossless")
	at := caltime.Date(2002, 6, 1)
	var noneBytes int64
	for _, s := range strategies {
		if err := s.Advance(at); err != nil {
			return err
		}
		if s.Name() == "no-reduction" {
			noneBytes = s.Bytes()
		}
	}
	for _, s := range strategies {
		lossless := s.Total(1) == totals[1]
		fmt.Fprintf(w, "%-22s %10d %12d %14.0f %10v\n", s.Name(), s.Rows(), s.Bytes(), s.Total(1), lossless)
	}
	fmt.Fprintf(w, "spec-reduction saves %.1f%% of fact storage while preserving every\n",
		100*(1-float64(red.Bytes())/float64(noneBytes)))
	fmt.Fprintln(w, "retained granularity exactly; deletion saves more but loses history;")
	fmt.Fprintln(w, "view-expire keeps one fixed view only (paper Sections 1, 4, 8)")
	return nil
}

func runS3(w io.Writer) error {
	_, env, rows, _, err := clickStream(365, 150)
	if err != nil {
		return err
	}
	// A spec with several granularities so queries fan out over cubes.
	mk := func(name, src string) *spec.Action {
		a, err := spec.CompileString(name, src, env)
		if err != nil {
			panic(err)
		}
		return a
	}
	sp, err := spec.New(env,
		mk("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`),
		mk("q", `aggregate [Time.quarter, URL.domain] where Time.quarter <= NOW - 2 quarters`),
		mk("y", `aggregate [Time.year, URL.domain_grp] where Time.year <= NOW - 1 year`),
	)
	if err != nil {
		return err
	}
	cs, err := subcube.New(sp)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := cs.Insert(r[0].([]mdm.ValueID), r[1].([]float64)); err != nil {
			return err
		}
	}
	at := caltime.Date(2001, 2, 1)
	if _, err := cs.Sync(at); err != nil {
		return err
	}
	q, err := subcube.ParseQuery(`aggregate [Time.month, URL.domain_grp]`, env)
	if err != nil {
		return err
	}
	const reps = 50
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := cs.Evaluate(q, at); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	fmt.Fprintf(w, "%d subcubes, query α[month, domain_grp] evaluated %d times\n", len(cs.Cubes()), reps)
	fmt.Fprintf(w, "per-subcube sub-queries run in parallel goroutines; mean latency %v\n", elapsed/reps)
	fmt.Fprintln(w, "(paper Section 7.3: sub-queries \"can be done in parallel\" and combine")
	fmt.Fprintln(w, "with \"only a few additional aggregations and one union\")")
	return nil
}

func runS4(w io.Writer) error {
	_, env, rows, _, err := clickStream(365, 300)
	if err != nil {
		return err
	}
	a, err := spec.CompileString("m",
		`aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env)
	if err != nil {
		return err
	}
	sp, err := spec.New(env, a)
	if err != nil {
		return err
	}
	cs, err := subcube.New(sp)
	if err != nil {
		return err
	}
	u, _ := sp.SignificantPeriod()
	fmt.Fprintf(w, "significant period: one %s (paper Section 7.2)\n", u)
	// advance synchronizes once per significant period: on the first
	// call, then whenever t has left the period of the last sync.
	var last caltime.Day
	syncs, moved := 0, 0
	advance := func(t caltime.Day) error {
		if syncs > 0 && caltime.PeriodOf(last, u) == caltime.PeriodOf(t, u) {
			return nil
		}
		m, err := cs.Sync(t)
		last = t
		syncs++
		moved += m
		return err
	}
	start := time.Now()
	loaded := 0
	for i, r := range rows {
		if err := cs.Insert(r[0].([]mdm.ValueID), r[1].([]float64)); err != nil {
			return err
		}
		loaded++
		// Bulk boundaries every 30 days of stream: advance + sync.
		if (i+1)%(30*300) == 0 {
			if err := advance(caltime.Date(2000, 1, 1) + caltime.Day((i+1)/300)); err != nil {
				return err
			}
		}
	}
	if err := advance(caltime.Date(2001, 1, 2)); err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(w, "loaded %d facts with %d synchronizations (%d rows migrated) in %v\n",
		loaded, syncs, moved, elapsed)
	fmt.Fprintf(w, "throughput: %.0f facts/sec including synchronization\n",
		float64(loaded)/elapsed.Seconds())
	return nil
}

func runS5(w io.Writer) error {
	p, s, err := paperSpec12()
	if err != nil {
		return err
	}
	cs, err := subcube.New(s)
	if err != nil {
		return err
	}
	if err := cs.InsertMO(p.MO); err != nil {
		return err
	}
	g, err := s.Env().Schema.ParseGranularity([]string{"Time.quarter", "URL.domain_grp"})
	if err != nil {
		return err
	}
	q := subcube.Query{Target: g, Sel: query.Conservative, Agg: query.Availability}
	mismatches := 0
	checks := 0
	for _, at := range []string{"2000/4/5", "2000/6/5", "2000/11/5", "2001/6/1", "2002/3/1"} {
		t := day(at)
		if _, err := cs.Sync(t); err != nil {
			return err
		}
		engine, err := cs.Evaluate(q, t)
		if err != nil {
			return err
		}
		red, err := core.Reduce(s, p.MO, t)
		if err != nil {
			return err
		}
		direct, err := query.Aggregate(red.MO, g, query.Availability)
		if err != nil {
			return err
		}
		checks++
		if canonMO(engine) != canonMO(direct) {
			mismatches++
			fmt.Fprintf(w, "MISMATCH at %s:\nengine:\n%sdirect:\n%s", at, canonMO(engine), canonMO(direct))
		}
	}
	fmt.Fprintf(w, "subcube engine vs Definition 2 semantics: %d/%d time points agree\n",
		checks-mismatches, checks)
	return nil
}
