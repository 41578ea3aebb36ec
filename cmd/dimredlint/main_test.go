package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dimred/internal/lint"
)

func repoRoot(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test working directory")
		}
		dir = parent
	}
}

func TestRunCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short mode")
	}
	var out, errOut strings.Builder
	code := run([]string{"-C", repoRoot(t), "./..."}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d on clean tree\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("unexpected output on clean tree:\n%s", out.String())
	}
}

// scratchModule lays out a throwaway module under a TempDir and returns
// its root, for tests that need dimredlint to load real packages.
func scratchModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	if resolved, err := filepath.EvalSymlinks(dir); err == nil {
		dir = resolved
	}
	files["go.mod"] = "module lintfix\n\ngo 1.24\n"
	for rel, content := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestRunFindsInjectedViolation(t *testing.T) {
	dir := scratchModule(t, map[string]string{
		"internal/core/core.go": `package core

import "time"

func Stamp() time.Time { return time.Now() }
`,
	})
	var out, errOut strings.Builder
	code := run([]string{"-C", dir, "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "call to time.Now") || !strings.Contains(out.String(), "[wallclock]") {
		t.Errorf("missing wallclock finding in output:\n%s", out.String())
	}
}

func TestRunList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d from -list", code)
	}
	names := []string{"wallclock", "purity", "snapalias", "clonecheck", "unknowndirective"}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(names) {
		t.Fatalf("-list printed %d analyzers, want %d:\n%s", len(lines), len(names), out.String())
	}
	for i, name := range names {
		if !strings.HasPrefix(lines[i], name+" ") {
			t.Errorf("-list line %d = %q, want analyzer %s", i, lines[i], name)
		}
	}
}

func TestRunOnlyFilter(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-only", "nosuchpass", "./..."}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d for unknown analyzer, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Errorf("stderr missing diagnostic: %s", errOut.String())
	}
}

func TestRunAudit(t *testing.T) {
	dir := scratchModule(t, map[string]string{
		"internal/core/core.go": `package core

import "time"

// Stamp is intentionally suppressed so -audit has something to report.
func Stamp() time.Time {
	return time.Now() //dimred:allow wallclock ingest timestamps carry real arrival time
}
`,
	})
	var out, errOut strings.Builder
	code := run([]string{"-C", dir, "-audit", "./..."}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "wallclock: ingest timestamps carry real arrival time") {
		t.Errorf("audit output missing analyzer and reason:\n%s", got)
	}
	if !strings.Contains(errOut.String(), "1 suppression(s)") {
		t.Errorf("stderr missing count: %s", errOut.String())
	}
}

// BenchmarkLintRepo measures a full analyzer sweep over the module,
// with loading (go list + parse + typecheck) paid once outside the
// loop; each iteration rebuilds the module facts (call graph, escape
// summaries, lock facts, directive tables). CI's bench smoke runs it
// for one iteration, so an analyzer that panics or pathologically slows
// on the real tree fails there.
func BenchmarkLintRepo(b *testing.B) {
	units, err := lint.Load(repoRoot(b), "./...")
	if err != nil {
		b.Fatal(err)
	}
	analyzers := lint.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := lint.Run(units, analyzers); len(diags) != 0 {
			b.Fatalf("unexpected findings: %d", len(diags))
		}
	}
}

// TestRepoSuppressionBudget pins, per analyzer, the number of reasoned
// //dimred:allow suppressions in the production tree. A new one is a
// reviewed decision: update the budget here alongside its mandatory
// reason, which this test also asserts is on record.
func TestRepoSuppressionBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short mode")
	}
	units, err := lint.Load(repoRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	budget := map[string]int{
		// internal/warehouse/warehouse.go: commitWithViewsLocked's
		// LevelFrom call (it writes the retired side, drained of readers,
		// from the published one).
		"snapalias": 1,
	}
	got := map[string]int{}
	for _, al := range lint.AuditEscapes(units) {
		if strings.TrimSpace(al.Reason) == "" {
			t.Errorf("%s:%d: %s escape without a reason", al.Pos.Filename, al.Pos.Line, al.Analyzer)
		}
		got[al.Analyzer]++
	}
	for analyzer, want := range budget {
		if got[analyzer] != want {
			t.Errorf("production tree has %d %s escape(s), budget is %d", got[analyzer], analyzer, want)
		}
	}
	for analyzer, n := range got {
		if _, ok := budget[analyzer]; !ok {
			t.Errorf("production tree has %d unbudgeted %s escape(s); grow the budget with a reviewed reason", n, analyzer)
		}
	}
}
