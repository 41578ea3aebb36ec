package main

import (
	"fmt"
	"math/rand"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/query"
	"dimred/internal/spec"
	"dimred/internal/subcube"
	"dimred/internal/workload"
)

// Every workload runs on one click schema under one specification and
// one script skeleton — set-up, a read segment, a write segment — and
// differs only in the sizes below. The segment a workload is named
// after is sized to dominate its timed wall; the other is a short
// probe, kept because the benchmark contract wants every end-to-end
// metric from every workload (see README).

// Timeline shared by all workloads: a sparse 1999 so the quarter action
// has rows to fold, then the dense recent stream the sizes describe.
var (
	historyStart = caltime.Date(1999, 1, 1)
	recentStart  = caltime.Date(2000, 1, 1)
)

const (
	historyDays = 365

	// The out-of-order tail of the issue: a fifth of the clicks arrive
	// late, some after their day's region was already reduced.
	lateFraction = 0.2
	meanLateDays = 15
	maxLateDays  = 60

	// flushEvery is the group-commit size of the write segment.
	flushEvery = 64
	// unsyncedAheadDays is how far past the clock the un-synchronized
	// template evaluates.
	unsyncedAheadDays = 45
	// traceEvery is the op sampling stride of the traced run.
	traceEvery = 16
	// minReps is the least number of repetitions per run, however slow
	// the host.
	minReps = 3

	dashboardZipf = 1.5
)

// The reduction specification of every workload, and the action the
// churn ops insert and delete again. The churn action's horizon lies
// before the first generated day, so it never becomes responsible for a
// row and Definition 4 always lets it go.
const (
	monthActionSrc   = `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`
	quarterActionSrc = `aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`
	churnActionName  = "y"
	churnActionSrc   = `aggregate [Time.year, URL.domain_grp] where Time.year <= NOW - 2 years`
)

// sizes parameterizes one workload.
type sizes struct {
	name string
	why  string

	// Recent click stream, from recentStart.
	clicksPerDay  int
	domains       int
	urlsPerDomain int
	zipfS         float64
	// historyClicksPerDay sizes the sparse 1999 stream. The two
	// workloads with views on go without it: a row folded to (quarter,
	// domain_grp) makes every finer view a mixture, which views.Build
	// rejects, and the dashboard catalog would fall to the base path.
	historyClicksPerDay int

	// setupDays: arrivals up to recentStart+setupDays are bulk-loaded in
	// set-up, which then advances the clock there. replayDays: the write
	// segment replays the arrivals of the following days in order.
	setupDays  int
	replayDays int

	views bool
	// reads is the read segment's op count; adhocPercent of them come
	// from the ad-hoc templates, the rest from the dashboard catalog.
	reads        int
	adhocPercent int
	// concurrent runs a second, closed-loop reader beside the write
	// segment, on a goroutine of its own: it cycles through the read
	// script until the writer ends.
	concurrent bool
	// The writer inserts the churn action every churnEvery replayed
	// days and deletes it churnHold days later (0 disables).
	churnEvery, churnHold int
}

// workloads lists the four workloads at full size. Sizes were chosen on
// the seed commit so a repetition — set-up, script and check — takes one
// to three seconds on the 2-core builder: BENCHMARK.json's run_seconds
// then covers eight or more, and every op of the script is measured that
// often (metrics.go reports the quiet decile of those).
var workloads = []sizes{
	{
		name:         "dashboard_read",
		why:          "view-served reads: Zipf-skewed predicate-free shapes on a synchronized warehouse with views on; parse + views.Answer + query.Aggregate do the work, scans and syncs do none",
		clicksPerDay: 300, domains: 100, urlsPerDomain: 20, zipfS: 1.3,
		setupDays: 269, replayDays: 5,
		views: true, reads: 12000, adhocPercent: 0,
	},
	{
		name:         "adhoc_scan",
		why:          "base-path reads: eight ad-hoc templates with views off over 20k live rows; storage.Scan + select/aggregate + cross-cube combine dominate, views do nothing",
		clicksPerDay: 1000, domains: 200, urlsPerDomain: 25, zipfS: 1.1, historyClicksPerDay: 60,
		setupDays: 269, replayDays: 5,
		views: false, reads: 100, adhocPercent: 100,
	},
	{
		name:         "stream_ingest",
		why:          "small-delta writes: 64-fact group commits into 29k live rows with views off; each commit pays insert + full Sync on both sides + publish, reads and views do nothing",
		clicksPerDay: 1500, domains: 300, urlsPerDomain: 30, zipfS: 1.1, historyClicksPerDay: 60,
		setupDays: 262, replayDays: 14,
		views: false, reads: 100, adhocPercent: 100,
	},
	{
		name:         "mixed_ops",
		why:          "reads beside writes: after a mixed read segment, a writer with views on (every commit rebuilds all views) plus spec churn, with a closed-loop reader on the other core taxing its commits",
		clicksPerDay: 100, domains: 60, urlsPerDomain: 15, zipfS: 1.3,
		setupDays: 223, replayDays: 53,
		views: true, reads: 2048, adhocPercent: 10, concurrent: true,
		churnEvery: 25, churnHold: 12,
	},
}

func workloadByName(name string) (sizes, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return sizes{}, false
}

// scaled shrinks a workload by div for smoke runs: fewer clicks per day
// and fewer reads over the same timeline, so every period boundary,
// fold and churn op of the full script still happens.
func (s sizes) scaled(div int) sizes {
	if div <= 1 {
		return s
	}
	shrink := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		return max(n/div, floor)
	}
	s.clicksPerDay = shrink(s.clicksPerDay, 8)
	s.historyClicksPerDay = shrink(s.historyClicksPerDay, 2)
	s.domains = shrink(s.domains, 6)
	s.urlsPerDomain = shrink(s.urlsPerDomain, 3)
	s.reads = shrink(s.reads, 32)
	return s
}

func (s sizes) setupDay() caltime.Day { return recentStart + caltime.Day(s.setupDays) }
func (s sizes) endDay() caltime.Day   { return s.setupDay() + caltime.Day(s.replayDays) }

// dashboardCatalog is the Zipf-ranked catalog of predicate-free
// availability shapes at or above (month, domain), most popular first.
var dashboardCatalog = []string{
	`aggregate [Time.quarter, URL.domain_grp]`,
	`aggregate [Time.year, URL.domain_grp]`,
	`aggregate [Time.month, URL.domain_grp]`,
	`aggregate [Time.quarter, URL.domain]`,
	`aggregate [Time.year, URL.domain]`,
	`aggregate [Time.month, URL.domain]`,
}

type opKind int

const (
	opQuery     opKind = iota // Warehouse.Query(src)
	opQueryWith               // Warehouse.QueryWith(src, sel, agg)
	opQueryAt                 // Warehouse.QueryAt(q, now+unsyncedAheadDays)
)

// template is one distinct (query, approaches, clock offset) the read
// script draws; answers are checked against the oracle per template.
type template struct {
	name  string
	kind  opKind
	src   string
	sel   query.Approach
	agg   query.AggApproach
	ahead int // days past the clock the query evaluates at
	// q is src parsed with sel and agg applied: the oracle and the
	// traced decomposition evaluate it; opQueryAt passes it through.
	q subcube.Query
}

// adhocFamilies builds the eight ad-hoc templates; a template that the
// issue runs under several approaches is a family of variants, and the
// read script takes the families in turn, then each family's variants
// in turn. The literal
// dates sit relative to the set-up clock: the reduced region ends two
// months before it, and the bottom cube holds what follows.
func adhocFamilies(s sizes) [][]template {
	y, m, _ := s.setupDay().Civil()
	month := func(back int) string {
		mm, yy := m-back, y
		for mm < 1 {
			mm += 12
			yy--
		}
		return fmt.Sprintf("%d/%d", yy, mm)
	}
	finer := fmt.Sprintf(`aggregate [Time.month, URL.domain_grp] where Time.day <= %s/15`, month(4))
	coarser := `aggregate [Time.week, URL.domain_grp]`
	// Cheapest families first: the balanced draw hands the families at
	// the front the odd extra op, which keeps the script's median op
	// inside the cheap half's cluster of costs instead of on the gap
	// between the halves.
	return [][]template{
		{{name: "reduced_range", kind: opQuery,
			src: fmt.Sprintf(`aggregate [Time.month, URL.domain_grp] where Time.month <= %s`, month(3))}},
		{
			{name: "finer_pred_conservative", kind: opQueryWith, sel: query.Conservative, src: finer},
			{name: "finer_pred_liberal", kind: opQueryWith, sel: query.Liberal, src: finer},
			{name: "finer_pred_weighted", kind: opQueryWith, sel: query.Weighted, src: finer},
		},
		{{name: "bottom_range", kind: opQuery,
			src: fmt.Sprintf(`aggregate [Time.day, URL.domain_grp] where %s/1 <= Time.day`, month(0))}},
		{{name: "url_slice", kind: opQuery, src: `aggregate [Time.month, URL.domain] where URL.domain_grp = ".com"`}},
		{{name: "unsynced", kind: opQueryAt, ahead: unsyncedAheadDays, src: `aggregate [Time.month, URL.domain]`}},
		{
			{name: "agg_strict", kind: opQueryWith, agg: query.Strict, src: coarser},
			{name: "agg_lub", kind: opQueryWith, agg: query.LUB, src: coarser},
			{name: "agg_disaggregated", kind: opQueryWith, agg: query.Disaggregated, src: coarser},
		},
		{{name: "coarse_target", kind: opQuery, src: `aggregate [Time.quarter, URL.domain_grp]`}},
		{{name: "fine_target", kind: opQuery, src: `aggregate [Time.day, URL.domain]`}},
	}
}

// fact is one resolved bottom-granularity row.
type fact struct {
	refs []mdm.ValueID
	meas []float64
}

// arrival is a replayed fact with the day the warehouse learns of it.
type arrival struct {
	fact
	day caltime.Day
}

// input is everything one run feeds the program under test, generated
// from the seed before any timed phase: dimension values are resolved
// here (ClickObject.Row mutates the dimensions), so the warehouse only
// ever receives (refs, meas) pairs and query strings.
type input struct {
	sz      sizes
	obj     *workload.ClickObject
	env     *spec.Env
	actions []*spec.Action
	churn   *spec.Action

	setup  []fact    // bulk-loaded by set-up
	replay []arrival // the write segment, in arrival order

	templates []template // dashboard catalog, then the ad-hoc variants
	reads     []int      // read script: indexes into templates
	// shapeCounts is how often each view-eligible shape occurs in the
	// read script, keyed by spec.EncodeGran: the traced run's own view
	// selector feeds on it (the warehouse's shape trace is private).
	shapeCounts map[string]int64
}

// generate builds a workload's inputs from the seed.
func generate(sz sizes, seed int64) (*input, error) {
	obj, err := workload.NewClickSchema()
	if err != nil {
		return nil, err
	}
	in := &input{sz: sz, obj: obj}
	setupDay, endDay := sz.setupDay(), sz.endDay()

	resolve := func(cfg workload.ClickConfig) error {
		return workload.GenerateOutOfOrder(workload.OutOfOrderConfig{
			ClickConfig:  cfg,
			LateFraction: lateFraction,
			MeanLateDays: meanLateDays,
			MaxLateDays:  maxLateDays,
		}, func(a workload.ArrivingClick) error {
			if a.Arrival > endDay {
				return nil
			}
			refs, meas, err := obj.Row(a.Click)
			if err != nil {
				return err
			}
			f := fact{refs: refs, meas: meas}
			if a.Arrival <= setupDay {
				in.setup = append(in.setup, f)
			} else {
				in.replay = append(in.replay, arrival{fact: f, day: a.Arrival})
			}
			return nil
		})
	}
	base := workload.ClickConfig{Domains: sz.domains, URLsPerDomain: sz.urlsPerDomain, ZipfS: sz.zipfS}
	if sz.historyClicksPerDay > 0 {
		history := base
		history.Seed, history.Start, history.Days, history.ClicksPerDay = seed*4+1, historyStart, historyDays, sz.historyClicksPerDay
		if err := resolve(history); err != nil {
			return nil, err
		}
	}
	recent := base
	recent.Seed, recent.Start, recent.Days, recent.ClicksPerDay = seed*4+2, recentStart, sz.setupDays+sz.replayDays+1, sz.clicksPerDay
	if err := resolve(recent); err != nil {
		return nil, err
	}
	if len(in.replay) > 0 && in.replay[0].day <= setupDay {
		return nil, fmt.Errorf("bench: history stream arrives after set-up day %v", setupDay)
	}

	in.env, err = spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		return nil, err
	}
	for _, a := range []struct{ name, src string }{{"m", monthActionSrc}, {"q", quarterActionSrc}} {
		act, err := spec.CompileString(a.name, a.src, in.env)
		if err != nil {
			return nil, err
		}
		in.actions = append(in.actions, act)
	}
	in.churn, err = spec.CompileString(churnActionName, churnActionSrc, in.env)
	if err != nil {
		return nil, err
	}

	for i, src := range dashboardCatalog {
		in.templates = append(in.templates, template{name: fmt.Sprintf("dash%d", i), kind: opQuery, src: src})
	}
	var families [][]int // ad-hoc family -> template indexes
	for _, fam := range adhocFamilies(sz) {
		var idx []int
		for _, t := range fam {
			idx = append(idx, len(in.templates))
			in.templates = append(in.templates, t)
		}
		families = append(families, idx)
	}
	for i := range in.templates {
		t := &in.templates[i]
		t.q, err = subcube.ParseQuery(t.src, in.env)
		if err != nil {
			return nil, fmt.Errorf("bench: template %s: %w", t.name, err)
		}
		if t.kind == opQueryWith {
			t.q.Sel, t.q.Agg = t.sel, t.agg
		}
	}

	// The read script: Zipf over the dashboard catalog, uniform over the
	// ad-hoc templates, mixed by adhocPercent.
	dash, err := workload.SkewedShapes(workload.QueryMixConfig{Seed: seed*4 + 3, Shapes: len(dashboardCatalog), ZipfS: dashboardZipf}, sz.reads)
	if err != nil {
		return nil, err
	}
	// The ad-hoc draws are balanced — families in turn, each family's
	// variants in turn — and then shuffled into the script's ad-hoc
	// slots: the templates differ tenfold in cost, and a free draw of a
	// hundred would let the seed decide the mix.
	rng := rand.New(rand.NewSource(seed*4 + 4))
	nAdhoc := sz.reads * sz.adhocPercent / 100
	adhoc := make([]int, nAdhoc)
	for i := range adhoc {
		fam := families[i%len(families)]
		adhoc[i] = fam[i/len(families)%len(fam)]
	}
	rng.Shuffle(nAdhoc, func(i, j int) { adhoc[i], adhoc[j] = adhoc[j], adhoc[i] })
	isAdhoc := make([]bool, sz.reads)
	for _, i := range rng.Perm(sz.reads)[:nAdhoc] {
		isAdhoc[i] = true
	}
	in.reads = make([]int, sz.reads)
	in.shapeCounts = map[string]int64{}
	for i := range in.reads {
		if isAdhoc[i] {
			in.reads[i], adhoc = adhoc[0], adhoc[1:]
		} else {
			in.reads[i] = dash[i]
		}
		if t := in.templates[in.reads[i]]; t.q.ViewEligible() {
			in.shapeCounts[spec.EncodeGran(t.q.Target)]++
		}
	}
	return in, nil
}
