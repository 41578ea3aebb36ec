// Command bench is the repository's benchmark: four workloads over one
// click warehouse, each reporting every end-to-end metric (untraced
// run) or every per-layer metric (traced run) and checking every answer
// against the interpreted oracle. See README.md.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bench -workload all -seed 1 -runs 5 -out RESULTS.json
//	bench -compare A.json,B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runResult is the benchmark contract's result line.
type runResult struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// detail is what a run knows beyond its result line; `-workload all`
// collects it from each child process through a file.
type detail struct {
	Workload    string                        `json:"workload"`
	Trace       bool                          `json:"trace"`
	Result      runResult                     `json:"result"`
	Spreads     map[string]float64            `json:"rep_spreads,omitempty"`
	Notes       map[string]string             `json:"notes,omitempty"`
	Reps        int                           `json:"reps"`
	LayerShares map[string]map[string]float64 `json:"layer_shares,omitempty"`
	TraceFile   string                        `json:"trace_file,omitempty"`
	Failures    []string                      `json:"failures,omitempty"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "input seed")
		secs         = flag.Int("seconds", runSeconds, "timed seconds per run")
		trace        = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		smoke        = flag.Bool("smoke", false, "1/50 scale, two repetitions: a functional check, not a measurement")
		runs         = flag.Int("runs", 1, "with -workload all: untraced runs per workload")
		out          = flag.String("out", "", "with -workload all: write the results file here")
		detailPath   = flag.String("detail", "", "also write the run's details to this file")
		compare      = flag.String("compare", "", "A.json,B.json: compare two results files")
		manifest     = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	var err error
	switch {
	case *manifest:
		err = printManifest(os.Stdout)
	case *compare != "":
		a, b, ok := strings.Cut(*compare, ",")
		if !ok {
			err = fmt.Errorf("-compare wants A.json,B.json")
			break
		}
		err = compareFiles(os.Stdout, a, b)
	case *workloadName == "all":
		err = runAll(*seed, *secs, *runs, *smoke, *out)
	default:
		sz, ok := workloadByName(*workloadName)
		if !ok {
			err = fmt.Errorf("unknown workload %q (have %s, all)", *workloadName, strings.Join(workloadNames(), ", "))
			break
		}
		cfg := runConfig{sizes: sz, seed: *seed, seconds: *secs, trace: *trace != 0}
		if *smoke {
			cfg.sizes, cfg.reps = sz.scaled(smokeScale), smokeReps
		}
		var d *detail
		if d, err = runWorkload(cfg); err != nil {
			break
		}
		printDetail(os.Stdout, d)
		if *detailPath != "" {
			if err = writeJSON(*detailPath, d); err != nil {
				break
			}
		}
		line, _ := json.Marshal(d.Result)
		fmt.Println(string(line))
		if !d.Result.Correct {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

const (
	smokeScale = 50
	smokeReps  = 2
)

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, s := range workloads {
		names[i] = s.name
	}
	return names
}

// runConfig is one run of one workload.
type runConfig struct {
	sizes   sizes
	seed    int64
	seconds int
	trace   bool
	reps    int // fixed repetition count; 0 repeats until seconds are measured
}

// runWorkload generates the inputs, repeats set-up and script for the
// run's seconds, and checks every repetition's outputs.
func runWorkload(cfg runConfig) (*detail, error) {
	in, err := generate(cfg.sizes, cfg.seed)
	if err != nil {
		return nil, err
	}
	var chk checks
	var first *repResult
	done := 0 // repetitions so far
	// rep runs set-up and the script once — after a forced collection, so
	// a repetition does not inherit the previous one's garbage — and
	// checks its outputs against the first repetition's: the script and
	// the state it starts from are the same, so every output must be. The
	// first repetition is held against the oracle once the measuring is
	// over, which keeps the oracle's reference states (the full history,
	// reduced) out of the peak resident set the run reports.
	rep := func(tr *tracer) (*repResult, error) {
		runtime.GC()
		t0 := time.Now()
		w, err := setUp(in)
		if err != nil {
			return nil, err
		}
		setup := time.Since(t0)
		res, err := runScript(in, w, tr)
		if err != nil {
			return nil, err
		}
		res.setup = setup
		done++
		if first == nil {
			first = res
		} else {
			chk.repeats(in, first, res)
			res.final, res.last, res.quiescent = nil, nil, nil
		}
		return res, nil
	}
	// The run's seconds cover everything repeated — set-up, script and
	// check — so a run's wall time is its seconds plus input generation
	// and the oracle. The last repetition is the one that ends nearest
	// the seconds, going by the mean length of those before it.
	start, budget := time.Now(), time.Duration(cfg.seconds)*time.Second
	repeat := func(tr *tracer) ([]*repResult, error) {
		var reps []*repResult
		for {
			if cfg.reps > 0 && len(reps) >= cfg.reps {
				return reps, nil
			}
			if elapsed := time.Since(start); cfg.reps == 0 && len(reps) >= minReps && elapsed+elapsed/time.Duration(2*done) >= budget {
				return reps, nil
			}
			r, err := rep(tr)
			if err != nil {
				return nil, err
			}
			reps = append(reps, r)
		}
	}
	d := &detail{Workload: cfg.sizes.name, Trace: cfg.trace, Spreads: map[string]float64{}, Notes: map[string]string{}}

	var ms metricSet
	var tr *tracer
	var counts *repResult
	var tracedWall, untracedWall time.Duration
	if !cfg.trace {
		// No warm-up repetition: a slow first one is one more disturbed
		// sample, and the quiet quantiles pass those by.
		reps, err := repeat(nil)
		if err != nil {
			return nil, err
		}
		d.Reps = len(reps)
		ms = endToEndMetrics(in, reps, peakRSSMB())
	} else {
		// One warm-up and one untraced repetition first: the second gives
		// the engine's counts, the faster of the two the wall the traced
		// repetitions' quiet wall is measured against.
		for i := 0; i < 2; i++ {
			if counts, err = rep(nil); err != nil {
				return nil, err
			}
		}
		untracedWall = min(first.wall, counts.wall)
		tr = newTracer()
		reps, err := repeat(tr)
		if err != nil {
			return nil, err
		}
		d.Reps = len(reps)
		walls := make([]time.Duration, len(reps))
		for i, r := range reps {
			walls[i] = r.wall
		}
		tracedWall = quietDuration(walls)
	}

	// The oracle, outside every timed phase.
	orc, err := newOracle(in)
	if err != nil {
		return nil, err
	}
	orc.verify(first, &chk)
	if cfg.trace {
		rec := tr.data()
		ms = perLayerMetrics(counts, rec, tracedWall, untracedWall, ratio(float64(chk.failed), float64(chk.attempted)))
		d.LayerShares = rec.layerShares()
		if d.TraceFile, err = rec.write("out", cfg.sizes.name); err != nil {
			return nil, err
		}
	}
	for name, v := range ms {
		if v.Spread != 0 {
			d.Spreads[name] = v.Spread
		}
		if v.Note != "" {
			d.Notes[name] = v.Note
		}
	}
	d.Failures = chk.notes
	d.Result = runResult{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: ms}
	return d, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// printDetail prints every metric by name with its unit.
func printDetail(out *os.File, d *detail) {
	kind := "end-to-end (untraced)"
	if d.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(out, "workload %s: %s, %d repetitions\n", d.Workload, kind, d.Reps)
	defs := endToEnd
	if d.Trace {
		defs = perLayer
	}
	for _, def := range defs {
		v := d.Result.Metrics[def.Name]
		fmt.Fprintf(out, "  %-36s %16.6g %-6s", def.Name, v.Value, v.Unit)
		if s, ok := d.Spreads[def.Name]; ok {
			fmt.Fprintf(out, " rep spread %.3f", s)
		}
		if n := d.Notes[def.Name]; n != "" {
			fmt.Fprintf(out, " [%s]", n)
		}
		fmt.Fprintln(out)
	}
	ops := make([]string, 0, len(d.LayerShares))
	for op := range d.LayerShares {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		shares := d.LayerShares[op]
		names := make([]string, 0, len(shares))
		for n := range shares {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
		fmt.Fprintf(out, "  self time / op wall, %s:", op)
		for _, n := range names {
			fmt.Fprintf(out, " %s %.1f%%", n, 100*shares[n])
		}
		fmt.Fprintln(out)
	}
	if d.TraceFile != "" {
		fmt.Fprintf(out, "  trace written to %s\n", d.TraceFile)
	}
	for _, f := range d.Failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
