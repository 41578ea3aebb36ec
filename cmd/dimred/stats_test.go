package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStatsAndTraceCommands(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "clicks.csv")
	snapPath := filepath.Join(dir, "wh.snapshot")

	csvData := strings.Join([]string{
		"2000/1/5,http://www.alpha.com/a,100,2,30",
		"2000/1/6,http://www.alpha.com/b,200,3,40",
		"2000/2/10,http://www.beta.org/x,300,1,20",
		"2000/6/1,http://www.alpha.com/a,50,1,10",
	}, "\n") + "\n"
	if err := os.WriteFile(csvPath, []byte(csvData), 0o644); err != nil {
		t.Fatal(err)
	}
	captureStdout(t, func() error {
		return runLoad([]string{"-csv", csvPath, "-out", snapPath, "-now", "2000/12/1"})
	})

	out := captureStdout(t, func() error {
		return runStats([]string{"-snapshot", snapPath})
	})
	for _, want := range []string{"clock: 2000/12/1", "facts loaded", "metrics:", "live rows", "fact bytes", "side reclones", "rows levelled"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}

	out = captureStdout(t, func() error {
		return runQuery([]string{"-snapshot", snapPath, "-trace", `aggregate [Time.month, URL.domain_grp]`})
	})
	for _, want := range []string{"trace:", "cubes pruned", "result cells"} {
		if !strings.Contains(out, want) {
			t.Errorf("traced query output missing %q:\n%s", want, out)
		}
	}

	if err := runStats([]string{"-snapshot", filepath.Join(dir, "missing.snapshot")}); err == nil {
		t.Error("missing snapshot accepted")
	}
}

func TestSimulateMetricsFlag(t *testing.T) {
	out := captureStdout(t, func() error {
		return runSimulate([]string{"-days", "30", "-rate", "5", "-at", "2001/6/1", "-metrics"})
	})
	for _, want := range []string{"metrics:", "rows folded", "sync latency", "query latency"} {
		if !strings.Contains(out, want) {
			t.Errorf("simulate -metrics output missing %q:\n%s", want, out)
		}
	}
}
