// Package lint is the repository's domain-invariant static-analysis
// suite. It mirrors the golang.org/x/tools go/analysis architecture —
// analyzers receive a type-checked package and report position-tagged
// diagnostics — but is built entirely on the standard library's go/ast
// and go/types (the module carries no external dependencies, so the
// x/tools framework itself is off the table).
//
// The analyzers encode invariants of the reproduced paper and of the
// engine's snapshot protocol that neither the compiler nor a test that
// happens not to hit the bad case can check:
//
//   - wallclock: NOW-relative semantics (Section 4.2) require every
//     semantic evaluation to take an explicit evaluation time, so the
//     ambient clock (time.Now and friends) is forbidden in semantic
//     packages; the obs.Clock seam is the only sanctioned source.
//
// Three are interprocedural, built on a module-wide call graph
// (callgraph.go):
//
//   - purity: functions marked //dimred:aggregate — the distributive
//     default aggregates Definition 6's Group_high folds in arbitrary
//     order — must not write package state, read the clock, or range
//     over maps, transitively over the call graph.
//   - snapalias: no write may reach a value derived from a
//     //dimred:immutable type — a direct field store, or a store
//     through a getter's return, a field read, an argument or a
//     closure capture; per-function escape summaries, computed
//     bottom-up in SCC order, carry the obligation across function
//     boundaries.
//   - clonecheck: every field of a struct built inside a Clone method
//     must be provably cloned, copied by reference-free value, or
//     annotated //dimred:shared with a reason — a forgotten field
//     aliases state across the left-right publish boundary.
//
// And unknowndirective validates the //dimred: directives themselves.
// What the suite does not police is gated elsewhere: the concurrency
// protocol (goroutine joins, lock order, mutex discipline, writes after a
// publish) by the -race job over the stress tests and the warehouse's
// writer table (DESIGN.md §12), and the NonCrossing /
// Growing / generation obligations of a specification change by the one
// commit funnel in internal/spec.
//
// Findings can be suppressed in source with a comment on the offending
// line or the line directly above it:
//
//	//dimred:allow <analyzer> <reason>
//
// The reason is mandatory; a bare allow comment suppresses nothing.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the analyzer that produced it
// and a human-readable message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Analyzer is one static-analysis pass. Exactly one of Run (invoked
// once per package) or RunModule (invoked once with the module-wide
// facts, for cross-package invariants) is set.
type Analyzer struct {
	Name string
	Doc  string
	// Run analyzes a single package.
	Run func(u *Unit) []Diagnostic
	// RunModule analyzes the whole loaded package set at once.
	RunModule func(m *Module) []Diagnostic
}

// Module is the loaded package set plus the facts more than one
// module-level analyzer reads, built once per Run: the call graph and
// the directive tables.
type Module struct {
	Units []*Unit
	pkgs  map[string]bool // import paths of the loaded units
	graph *CallGraph
	dirs  *directiveTable
}

func newModule(units []*Unit) *Module {
	return &Module{Units: units, pkgs: modulePkgs(units), graph: BuildCallGraph(units), dirs: newDirectiveTable(units)}
}

func modulePkgs(units []*Unit) map[string]bool {
	pkgs := map[string]bool{}
	for _, u := range units {
		pkgs[u.Path] = true
	}
	return pkgs
}

// Run executes the analyzers over the loaded units one after another,
// drops findings suppressed by //dimred:allow comments, deduplicates
// identical findings, and returns the rest sorted by position.
func Run(units []*Unit, analyzers []*Analyzer) []Diagnostic {
	m := newModule(units)
	seen := map[Diagnostic]bool{}
	var kept []Diagnostic
	for _, a := range analyzers {
		var ds []Diagnostic
		if a.RunModule != nil {
			ds = a.RunModule(m)
		} else {
			for _, u := range units {
				ds = append(ds, a.Run(u)...)
			}
		}
		for _, d := range ds {
			d.Analyzer = a.Name
			if !seen[d] && !m.dirs.allowed[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
				kept = append(kept, d)
			}
			seen[d] = true
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// pathMatches reports whether a package import path is, or ends with,
// one of the given path suffixes ("internal/core" matches both
// "dimred/internal/core" and a test module's "x/internal/core").
func pathMatches(pkgPath string, suffixes []string) bool {
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}
