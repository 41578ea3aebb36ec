package lint_test

import (
	"strings"
	"testing"

	"dimred/internal/lint"
	"dimred/internal/lint/linttest"
)

func newUnknownDirective() *lint.Analyzer {
	var names []string
	for _, a := range lint.All() {
		names = append(names, a.Name)
	}
	return lint.NewUnknownDirective(names)
}

// TestUnknownDirectiveNames exercises the registry lookup: misspelled
// directives are flagged, and every registered directive in its proper
// position stays silent.
func TestUnknownDirectiveNames(t *testing.T) {
	linttest.Run(t, []*lint.Analyzer{newUnknownDirective()}, map[string]string{
		"lib/lib.go": `package lib

// Snap is published.
//
//dimred:immutable
type Snap struct {
	//dimred:shared the map is frozen after construction
	Rows map[string]int
}

// Fold folds.
//
//dimred:aggregate
func Fold(a, b int) int { return a + b }

// Bad is misspelled.
//
//dimred:immutible // want "unknown directive //dimred:immutible"
type Bad struct{ N int }

// Share is misspelled.
type Share struct {
	Rows map[string]int //dimred:share fine reason // want "unknown directive //dimred:share"
}

// Retired directives are unknown like any other name.
//
//dimred:replay the publishcheck escape went with its analyzer // want "unknown directive //dimred:replay"
func commit() {
	//dimred:detached so did gospawn's // want "unknown directive //dimred:detached"
	go commit()
}
`,
	})
}

// TestUnknownDirectiveContexts: a well-spelled directive on the wrong
// node kind has no effect, so it is flagged with the position where it
// would have one.
func TestUnknownDirectiveContexts(t *testing.T) {
	linttest.Run(t, []*lint.Analyzer{newUnknownDirective()}, map[string]string{
		"lib/lib.go": `package lib

// Alias is not a struct, and immutable only reads struct docs.
//
//dimred:immutable // want "//dimred:immutable has no effect here; it must be a struct type's doc comment" "//dimred:immutable takes no argument"
type Alias = map[string]int

// Fold carries a field directive.
//
//dimred:shared misplaced reason // want "//dimred:shared has no effect here; it must be a struct field's doc or line comment"
func Fold(a, b int) int { return a + b }

// S carries a func directive.
//
//dimred:aggregate // want "//dimred:aggregate has no effect here; it must be a function's doc comment" "//dimred:aggregate takes no argument"
type S struct{ N int }
`,
	})
}

// TestUnknownDirectiveArgs pins the argument validation on cases where
// a trailing want-comment would distort the directive's own argument
// text: bare, reasonless and misdirected allows, trailing text on a
// no-argument directive, duplicate directives.
func TestUnknownDirectiveArgs(t *testing.T) {
	diags := linttest.Diagnostics(t, []*lint.Analyzer{newUnknownDirective()}, map[string]string{
		"lib/lib.go": "package lib\n\n" +
			"//dimred:allow\n" + // bare allow suppresses nothing
			"var a = 1\n\n" +
			"//dimred:allow wallclock\n" + // missing reason
			"var b = 2\n\n" +
			"//dimred:allow nosuchanalyzer the reason is fine\n" +
			"var c = 3\n\n" +
			"// D doc.\n" +
			"//\n" +
			"//dimred:aggregate with trailing text\n" +
			"func D(x, y int) int { return x + y }\n\n" +
			"// E doc.\n" +
			"//\n" +
			"//dimred:aggregate\n" +
			"//dimred:aggregate\n" + // duplicate on one declaration
			"func E(x, y int) int { return x + y }\n",
	})
	wants := []string{
		"//dimred:allow suppresses nothing without '<analyzer> <reason>'",
		"//dimred:allow wallclock is missing the mandatory reason",
		"names unknown analyzer \"nosuchanalyzer\"",
		"//dimred:aggregate takes no argument",
		"duplicate //dimred:aggregate on one declaration",
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Message)
	}
	if len(got) != len(wants) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(wants), strings.Join(got, "\n"))
	}
	for i, w := range wants {
		if !strings.Contains(got[i], w) {
			t.Errorf("finding %d = %q, want containing %q", i, got[i], w)
		}
	}
}

// TestUnknownDirectiveSharedReasonOwnership: a reasonless shared
// directive is clonecheck's finding, not unknowndirective's — exactly
// one analyzer reports each defect.
func TestUnknownDirectiveSharedReasonOwnership(t *testing.T) {
	files := map[string]string{
		"lib/lib.go": `package lib

type S struct {
	//dimred:shared
	Rows map[string]int
}

// Clone copies S.
func (s *S) Clone() *S {
	return &S{Rows: s.Rows}
}
`,
	}
	if ds := linttest.Diagnostics(t, []*lint.Analyzer{newUnknownDirective()}, files); len(ds) != 0 {
		t.Errorf("unknowndirective reported %d findings on a reasonless shared, want 0 (clonecheck owns it): %v", len(ds), ds)
	}
	ds := linttest.Diagnostics(t, []*lint.Analyzer{lint.NewCloneCheck()}, files)
	found := false
	for _, d := range ds {
		if strings.Contains(d.Message, "missing the mandatory reason") {
			found = true
		}
	}
	if !found {
		t.Errorf("clonecheck did not flag the reasonless shared: %v", ds)
	}
}
