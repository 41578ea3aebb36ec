package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"dimred/internal/lint"
)

// loadScratch materializes a scratch module and loads it with lint.Load.
func loadScratch(t *testing.T, files map[string]string) []*lint.Unit {
	t.Helper()
	dir := t.TempDir()
	if resolved, err := filepath.EvalSymlinks(dir); err == nil {
		dir = resolved
	}
	if _, ok := files["go.mod"]; !ok {
		files["go.mod"] = "module lintfix\n\ngo 1.24\n"
	}
	for rel, content := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	units, err := lint.Load(dir, "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return units
}

const callGraphFixture = `package core

func Leaf() int { return 1 }

func Caller() int { return Leaf() }

func Rec(n int) int {
	if n == 0 {
		return 0
	}
	return Rec(n - 1)
}

func MutA(n int) int {
	if n == 0 {
		return 0
	}
	return MutB(n - 1)
}

func MutB(n int) int { return MutA(n) }

type T struct{ n int }

func (t *T) M() int { return t.n }

func MethodValue(t *T) func() int { return t.M }

func InClosure() int {
	f := func() int { return Leaf() }
	return f()
}

type G[V any] struct{ v V }

func (g *G[V]) Get() V { return g.v }

func OnInstance(g *G[int]) int { return g.Get() }
`

// TestCallGraphEdges checks the three edge forms: direct calls,
// method/function values, and references inside function literals — and
// that a method called on an instantiated generic type is an edge to the
// method as declared.
func TestCallGraphEdges(t *testing.T) {
	units := loadScratch(t, map[string]string{"core/core.go": callGraphFixture})
	cg := lint.BuildCallGraph(units)

	calls := func(key string) map[string]bool {
		t.Helper()
		node := cg.Nodes[key]
		if node == nil {
			t.Fatalf("no call-graph node for %q", key)
		}
		set := map[string]bool{}
		for _, c := range node.Calls {
			set[c] = true
		}
		return set
	}

	if !calls("lintfix/core.Caller")["lintfix/core.Leaf"] {
		t.Error("Caller → Leaf edge missing (direct call)")
	}
	if !calls("lintfix/core.Rec")["lintfix/core.Rec"] {
		t.Error("Rec → Rec self-edge missing (recursion)")
	}
	if !calls("lintfix/core.MutA")["lintfix/core.MutB"] || !calls("lintfix/core.MutB")["lintfix/core.MutA"] {
		t.Error("MutA ↔ MutB edges missing (mutual recursion)")
	}
	if !calls("lintfix/core.MethodValue")["(*lintfix/core.T).M"] {
		t.Error("MethodValue → (*T).M edge missing (method value)")
	}
	if !calls("lintfix/core.InClosure")["lintfix/core.Leaf"] {
		t.Error("InClosure → Leaf edge missing (reference inside a function literal)")
	}
	if !calls("lintfix/core.OnInstance")["(*lintfix/core.G[V]).Get"] {
		t.Errorf("OnInstance → (*G[V]).Get edge missing (method of an instantiated generic type); has %v", calls("lintfix/core.OnInstance"))
	}
}

// TestCallGraphSCCs checks bottom-up (callee-first) emission order and
// component grouping: mutually recursive functions share one SCC, a
// self-recursive function is its own SCC, and every callee's SCC is
// emitted before its caller's.
func TestCallGraphSCCs(t *testing.T) {
	units := loadScratch(t, map[string]string{"core/core.go": callGraphFixture})
	cg := lint.BuildCallGraph(units)

	sccIndex := map[string]int{}
	for i, scc := range cg.SCCs() {
		for _, key := range scc {
			if prev, dup := sccIndex[key]; dup {
				t.Fatalf("%s appears in SCCs %d and %d", key, prev, i)
			}
			sccIndex[key] = i
		}
	}
	for key := range cg.Nodes {
		if _, ok := sccIndex[key]; !ok {
			t.Errorf("node %s missing from SCC emission", key)
		}
	}

	if sccIndex["lintfix/core.MutA"] != sccIndex["lintfix/core.MutB"] {
		t.Error("mutually recursive MutA and MutB should share an SCC")
	}
	if sccIndex["lintfix/core.MutA"] == sccIndex["lintfix/core.Leaf"] {
		t.Error("MutA/MutB and Leaf must not share an SCC")
	}

	// Bottom-up: every edge must land in the same or an earlier SCC.
	for key, node := range cg.Nodes {
		for _, callee := range node.Calls {
			if _, isNode := sccIndex[callee]; !isNode {
				continue
			}
			if sccIndex[callee] > sccIndex[key] {
				t.Errorf("edge %s → %s goes to a later SCC (%d > %d); order is not bottom-up",
					key, callee, sccIndex[callee], sccIndex[key])
			}
		}
	}
}
