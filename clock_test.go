package dimred_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// clockFree lists the packages whose non-test files must not read the
// ambient clock: the semantic packages, where every evaluation takes an
// explicit caltime.Day (the paper's NOW-relative predicates, Section 4.2),
// and the engine packages whose stage timing goes through the obs.Clock
// seam so that tests can fake it. internal/obs owns the wall clock. A new
// package that handles evaluation time joins this list.
var clockFree = []string{
	"internal/caltime", "internal/core", "internal/expr", "internal/ingest",
	"internal/mdm", "internal/prover", "internal/query", "internal/spec",
	"internal/specexec", "internal/storage", "internal/subcube",
	"internal/views", "internal/warehouse",
}

// ambientClock names the functions of package time that read the clock.
var ambientClock = map[string]bool{"Now": true, "Since": true, "Tick": true}

// TestNoAmbientClock fails on any time.Now, time.Since or time.Tick
// selector in a clockFree package, reached through whatever name the file
// imports "time" under, and on a dot import of "time", which would hide
// such a call behind a bare Now().
func TestNoAmbientClock(t *testing.T) {
	for _, dir := range clockFree {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: no Go files (%v); a moved package must be renamed here", dir, err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			names := map[string]bool{}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p != "time" {
					continue
				}
				switch {
				case imp.Name == nil:
					names["time"] = true
				case imp.Name.Name == ".":
					t.Errorf("%s: dot import of time", fset.Position(imp.Pos()))
				default:
					names[imp.Name.Name] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && names[x.Name] && ambientClock[sel.Sel.Name] {
					t.Errorf("%s: time.%s reads the ambient clock; take the instant as a parameter, or time a stage through obs.Clock",
						fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
}
