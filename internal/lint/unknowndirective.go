package lint

import (
	"go/ast"
	"strings"
)

// NewUnknownDirective builds the unknowndirective analyzer: every
// comment beginning with "//dimred:" must name a directive from the
// registry in directives.go, sit on a node kind where that directive
// has meaning, carry well-formed arguments, and not repeat a directive
// already attached to the same declaration. The directive tables the
// analyzers read hold only well-placed registry entries, so a
// misspelled or misplaced one is silently ignored — the annotation the
// author relied on simply never takes effect. This analyzer turns that
// silent hole into a blocking finding.
//
// analyzerNames is the set of valid first arguments of an allow
// directive; All() passes the bundle's own names.
func NewUnknownDirective(analyzerNames []string) *Analyzer {
	names := map[string]bool{}
	for _, n := range analyzerNames {
		names[n] = true
	}
	a := &Analyzer{
		Name: "unknowndirective",
		Doc: "every dimred directive comment must be registered, well-placed and " +
			"well-formed; a typo'd directive silently disables the check it configures",
	}
	a.RunModule = func(m *Module) []Diagnostic {
		var ds []Diagnostic
		diag := func(d *directive, format string, args ...any) {
			ds = append(ds, d.unit.Diag(d.comment.Pos(), format, args...))
		}
		// seen tracks directives per attachment point — the owning
		// declaration for doc/line comments (a field's doc and trailing
		// comment share one), the comment group otherwise.
		seen := map[ast.Node]map[string]bool{}
		for i := range m.dirs.all {
			d := &m.dirs.all[i]
			if d.name == "" {
				diag(d, "empty dimred directive; expected //dimred:<name>")
				continue
			}
			if d.spec == nil {
				diag(d, "unknown directive //dimred:%s", d.name)
				continue
			}
			if seen[d.owner] == nil {
				seen[d.owner] = map[string]bool{}
			}
			if seen[d.owner][d.name] {
				diag(d, "duplicate //dimred:%s on one declaration; the analyzers read the first, so a second is dead weight or a conflict", d.name)
			}
			seen[d.owner][d.name] = true

			if !d.inContext() {
				diag(d, "//dimred:%s has no effect here; it must be %s", d.name, d.spec.where)
			}
			fields := strings.Fields(d.args)
			switch {
			case d.spec.wantsAnalyzer:
				if len(fields) == 0 {
					diag(d, "//dimred:%s suppresses nothing without '<analyzer> <reason>'", d.name)
					continue
				}
				if !names[fields[0]] {
					diag(d, "//dimred:%s names unknown analyzer %q", d.name, fields[0])
				}
				if len(fields) < 2 {
					diag(d, "//dimred:%s %s is missing the mandatory reason", d.name, fields[0])
				}
			case d.spec.wantsReason:
				// shared: clonecheck, which consumes the reason, reports a
				// missing one; it is not double-reported here.
			default:
				if len(fields) > 0 {
					diag(d, "//dimred:%s takes no argument; trailing text disables the exact-match directive", d.name)
				}
			}
		}
		return ds
	}
	return a
}
