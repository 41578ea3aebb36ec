package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// benchmarkManifest is BENCHMARK.json: what the driver reads to run the
// benchmark. -manifest prints it from the registries in this package,
// and bench_test.go fails when the committed file has drifted.
type benchmarkManifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []manifestWhy `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []manifestDef `json:"per_layer"`
}

type manifestWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the measuring time of one run the driver asks for.
const runSeconds = 28

func manifest() benchmarkManifest {
	m := benchmarkManifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, s := range workloads {
		m.Workloads = append(m.Workloads, manifestWhy{s.name, s.why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestDef{d.Name, d.Unit, d.Better})
	}
	return m
}

func printManifest(out io.Writer) error {
	data, err := json.MarshalIndent(manifest(), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(data))
	return err
}

// resultsFile is what `-workload all -out` writes and -compare reads:
// the numbers of one commit on one host.
type resultsFile struct {
	// Claim is what a performance change says it gained; the change that
	// defines the benchmark claims nothing.
	Claim      *string           `json:"claim"`
	Env        envInfo           `json:"env"`
	RunSeconds int               `json:"run_seconds"`
	Runs       int               `json:"runs"`
	Workloads  []workloadResults `json:"workloads"`
}

type envInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

type workloadResults struct {
	Name        string                        `json:"name"`
	Why         string                        `json:"why"`
	Sizes       map[string]any                `json:"sizes"`
	EndToEnd    []metricResult                `json:"end_to_end"`
	PerLayer    []metricResult                `json:"per_layer"`
	LayerShares map[string]map[string]float64 `json:"layer_shares"`
}

// metricResult is one metric over the runs of one workload. Spread is
// the run-to-run range (max-min)/median.
type metricResult struct {
	metricDef
	Median float64   `json:"median"`
	Spread float64   `json:"spread"`
	Runs   []float64 `json:"runs,omitempty"`
	Note   string    `json:"note,omitempty"`
}

func (s sizes) describe() map[string]any {
	return map[string]any{
		"clicks_per_day": s.clicksPerDay, "domains": s.domains, "urls_per_domain": s.urlsPerDomain, "zipf_s": s.zipfS,
		"history_clicks_per_day": s.historyClicksPerDay, "setup_day": s.setupDay().String(), "replay_days": s.replayDays,
		"views": s.views, "reads": s.reads, "adhoc_percent": s.adhocPercent, "concurrent": s.concurrent,
		"churn_every_days": s.churnEvery, "churn_hold_days": s.churnHold,
		"flush_every": flushEvery,
	}
}

// commit names the source revision, when the checkout is a git one.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload in a process of its own — untraced runs
// times, then traced once — so heap state and the resident-set
// high-water mark do not leak from one workload into the next.
func runAll(seed int64, secs, runs int, smoke bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	child := func(name string, trace int) (*detail, error) {
		path := filepath.Join("out", fmt.Sprintf("detail-%s-trace%d.json", name, trace))
		args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(secs), "-trace", fmt.Sprint(trace), "-detail", path}
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s (trace %d): %w", name, trace, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var d detail
		return &d, json.Unmarshal(data, &d)
	}

	rf := resultsFile{
		Env:        envInfo{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Go: runtime.Version(), Commit: commit(), Seed: seed},
		RunSeconds: secs,
		Runs:       runs,
	}
	for _, sz := range workloads {
		wr := workloadResults{Name: sz.name, Why: sz.why, Sizes: sz.describe()}
		if smoke {
			wr.Sizes = sz.scaled(smokeScale).describe()
		}
		var untraced []*detail
		for i := 0; i < max(runs, 1); i++ {
			d, err := child(sz.name, 0)
			if err != nil {
				return err
			}
			untraced = append(untraced, d)
		}
		for _, def := range endToEnd {
			mr := metricResult{metricDef: def, Note: untraced[0].Notes[def.Name]}
			for _, d := range untraced {
				mr.Runs = append(mr.Runs, d.Result.Metrics[def.Name].Value)
			}
			mr.Median, mr.Spread = median(mr.Runs), spread(mr.Runs)
			wr.EndToEnd = append(wr.EndToEnd, mr)
		}
		traced, err := child(sz.name, 1)
		if err != nil {
			return err
		}
		for _, def := range perLayer {
			wr.PerLayer = append(wr.PerLayer, metricResult{metricDef: def, Median: traced.Result.Metrics[def.Name].Value})
		}
		wr.LayerShares = traced.LayerShares
		rf.Workloads = append(rf.Workloads, wr)
	}
	if out == "" {
		return nil
	}
	return writeJSON(out, rf)
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// results files: both medians, both run-to-run spreads, B's median as a
// ratio of A's, and a verdict by the metric's own bound — regressed
// when B is worse than A by more than the bound, unresolved when either
// side's spread is wider than the bound, unchanged otherwise.
func compareFiles(out io.Writer, pathA, pathB string) error {
	var a, b resultsFile
	for _, f := range []struct {
		path string
		into *resultsFile
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, f.into); err != nil {
			return fmt.Errorf("%s: %w", f.path, err)
		}
	}
	fmt.Fprintf(out, "A = %s (%s, %d runs)   B = %s (%s, %d runs)\n", pathA, a.Env.Commit, a.Runs, pathB, b.Env.Commit, b.Runs)
	fmt.Fprintf(out, "%-15s %-22s %14s %7s %14s %7s %10s %6s  %s\n",
		"workload", "metric", "A median", "spread", "B median", "spread", "B/A", "bound", "verdict")
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wb.Name != wa.Name {
				continue
			}
			for _, ma := range wa.EndToEnd {
				for _, mb := range wb.EndToEnd {
					if mb.Name != ma.Name {
						continue
					}
					fmt.Fprintf(out, "%-15s %-22s %14.6g %7.3f %14.6g %7.3f %10.4f %6.2f  %s\n",
						wa.Name, ma.Name, ma.Median, ma.Spread, mb.Median, mb.Spread,
						ratio(mb.Median, ma.Median), ma.Bound, verdict(ma, mb))
				}
			}
		}
	}
	return nil
}

// verdict judges B against A by the metric's own bound.
func verdict(a, b metricResult) string {
	worse := ratio(b.Median-a.Median, a.Median)
	if a.Better == "higher" {
		worse = -worse
	}
	switch {
	case max(a.Spread, b.Spread) > a.Bound:
		return "unresolved"
	case worse > a.Bound:
		return "regressed"
	}
	return "unchanged"
}
