package dimred_test

import (
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

// citedName matches a test, benchmark or fuzz target named in prose,
// with a trailing * when the citation is a pattern.
var citedName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)

// TestDocsCiteLiveNames: every Test…, Benchmark… or Fuzz… name that
// DESIGN.md or README.md cites names a function declared in a _test.go
// file of this module or of the bench module, so a renamed or deleted
// test cannot leave the docs pointing at nothing. A name ending in * is a
// pattern and is exempt.
func TestDocsCiteLiveNames(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				declared[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, name := range citedName.FindAllString(line, -1) {
				if !strings.HasSuffix(name, "*") && !declared[name] {
					t.Errorf("%s:%d cites %s, which no _test.go file declares", doc, i+1, name)
				}
			}
		}
	}
}
