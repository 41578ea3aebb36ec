package dimred_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// citedName matches a test, benchmark or fuzz target named in prose,
	// with a trailing * when the citation is a pattern.
	citedName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	// codeSpan matches one backticked span of Markdown.
	codeSpan = regexp.MustCompile("`[^`]+`")
	// qualifiedName matches a dotted chain of identifiers, X.Y or longer.
	qualifiedName = regexp.MustCompile(`\b[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+`)
	// camelName matches a backticked span that is one identifier with an
	// inner capital (`viewOf`, `SnapshotPublishes`): a name from the code.
	camelName = regexp.MustCompile("^`[A-Za-z_]\\w*[a-z][A-Z]\\w*`$")
	// fileSuffix marks a chain that is a file name, not code.
	fileSuffix = regexp.MustCompile(`\.(?:go|md|json|yml|txt|sh)$`)
)

// declarations is what the Go files of this module and of the bench
// module declare.
type declarations struct {
	tests    map[string]bool // top-level functions of _test.go files
	names    map[string]bool // every func, method, type, field, const and var
	packages map[string]bool // package names, external test packages folded in
	types    map[string]bool // type names
}

func declare(set map[string]bool, idents []*ast.Ident) {
	for _, id := range idents {
		set[id.Name] = true
	}
}

// embeddedName is the field name an embedded field type declares.
func embeddedName(x ast.Expr) string {
	switch t := x.(type) {
	case *ast.StarExpr:
		return embeddedName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.IndexExpr:
		return embeddedName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

func collectDeclarations(t *testing.T) declarations {
	t.Helper()
	d := declarations{tests: map[string]bool{}, names: map[string]bool{}, packages: map[string]bool{}, types: map[string]bool{}}
	fields := func(fl *ast.FieldList) {
		for _, f := range fl.List {
			if len(f.Names) == 0 {
				d.names[embeddedName(f.Type)] = true
			}
			declare(d.names, f.Names)
		}
	}
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if pkg := strings.TrimSuffix(f.Name.Name, "_test"); pkg != "main" {
			d.packages[pkg] = true
		}
		isTest := strings.HasSuffix(path, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				d.names[n.Name.Name] = true
				if isTest && n.Recv == nil {
					d.tests[n.Name.Name] = true
				}
			case *ast.TypeSpec:
				d.names[n.Name.Name] = true
				d.types[n.Name.Name] = true
			case *ast.ValueSpec:
				declare(d.names, n.Names)
			case *ast.StructType:
				fields(n.Fields)
			case *ast.InterfaceType:
				fields(n.Methods)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// benchmarkMetrics lists the metric names BENCHMARK.json declares; a
// doc that cites one (`query.combine_us`) cites a metric, not code.
func benchmarkMetrics(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		names[m.Name] = true
	}
	return names
}

// TestDocsCiteLiveNames: the names DESIGN.md and README.md cite exist, so
// a renamed or deleted declaration cannot leave the docs pointing at
// nothing.
//   - Every Test…, Benchmark… or Fuzz… name is a function declared in a
//     _test.go file of this module or of the bench module. A name ending
//     in * is a pattern and is exempt.
//   - Every backticked qualified name X.Y whose X is a package name or a
//     type of either module has a Y that either module declares: a func,
//     method, type, field, const or var. In a longer chain X.Y.Z each
//     link is checked. File names and the benchmark's metric names are
//     not code and are exempt.
//   - Every backticked lone identifier with an inner capital is declared
//     by either module, so a deleted helper or metric cannot linger.
func TestDocsCiteLiveNames(t *testing.T) {
	d := collectDeclarations(t)
	metrics := benchmarkMetrics(t)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, name := range citedName.FindAllString(line, -1) {
				if !strings.HasSuffix(name, "*") && !d.tests[name] {
					t.Errorf("%s:%d cites %s, which no _test.go file declares", doc, i+1, name)
				}
			}
			for _, span := range codeSpan.FindAllString(line, -1) {
				if camelName.MatchString(span) && !d.names[strings.Trim(span, "`")] {
					t.Errorf("%s:%d cites %s, which neither module declares", doc, i+1, span)
				}
				for _, chain := range qualifiedName.FindAllString(span, -1) {
					if fileSuffix.MatchString(chain) || metrics[chain] {
						continue
					}
					parts := strings.Split(chain, ".")
					for j := 0; j+1 < len(parts); j++ {
						x, y := parts[j], parts[j+1]
						if (d.packages[x] || d.types[x]) && !d.names[y] {
							t.Errorf("%s:%d cites %s.%s, which neither module declares", doc, i+1, x, y)
						}
					}
				}
			}
		}
	}
}

// designMaxLines caps DESIGN.md: it describes the tree as it stands, so a
// mechanism's section is rewritten when the mechanism changes, not grown.
const designMaxLines = 900

// TestDesignWithinCap fails when DESIGN.md runs past designMaxLines.
func TestDesignWithinCap(t *testing.T) {
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(text), "\n"); n > designMaxLines {
		t.Errorf("DESIGN.md has %d lines, at most %d allowed", n, designMaxLines)
	}
}
