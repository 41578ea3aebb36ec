package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// InvariantConfig tells the invariantcall analyzer where the guarded
// state and its checkers live. Package paths are suffix-matched so the
// analyzer also works inside test fixture modules.
type InvariantConfig struct {
	// SpecPkg is the package-path suffix holding the specification
	// type, e.g. "internal/spec".
	SpecPkg string
	// SpecType is the struct whose Field is the guarded action set.
	SpecType string
	// Field is the action-set field name.
	Field string
	// Checkers are the function names (in SpecPkg) that discharge the
	// paper's proof obligations; every exported mutator must reach all
	// of them.
	Checkers []string
	// GenBump is a method name (in SpecPkg) that records a committed
	// mutation of the guarded field — the generation bump that
	// invalidates compiled-program caches keyed on the specification
	// generation. Every exported mutator must reach it; empty disables
	// the check.
	GenBump string
}

// DefaultInvariantConfig guards Spec.actions with the operational
// NonCrossing (Section 5.2) and Growing (Section 5.3, Eq. 23) checks —
// the obligations the paper hands to a theorem prover, which the
// insert/delete operators of Definitions 3–4 must discharge — and with
// the bumpGeneration discipline the specexec program cache relies on:
// a mutator that commits without bumping the generation would leave
// stale compiled programs looking fresh.
var DefaultInvariantConfig = InvariantConfig{
	SpecPkg:  "internal/spec",
	SpecType: "Spec",
	Field:    "actions",
	Checkers: []string{"CheckNonCrossing", "CheckGrowing"},
	GenBump:  "bumpGeneration",
}

// funcFacts is what invariantcall records per function declaration.
type funcFacts struct {
	writesField bool            // assigns the guarded field directly
	checks      map[string]bool // checker names invoked directly
	calls       []string        // static callees inside the module
	pos         *ast.FuncDecl
	unit        *Unit
}

// NewInvariantCall builds the invariantcall analyzer: any exported
// function that (transitively) mutates the guarded action-set field
// must also (transitively) invoke every configured checker. The call
// graph is static — calls through function values or interfaces are
// not followed — which is exactly the discipline the spec package's
// insert/delete operators already obey.
func NewInvariantCall(cfg InvariantConfig) *Analyzer {
	a := &Analyzer{
		Name: "invariantcall",
		Doc:  "exported mutators of the spec action set must invoke the NonCrossing/Growing checkers and bump the spec generation",
	}
	a.RunModule = func(m *Module) []Diagnostic {
		checkerSet := map[string]bool{}
		for _, c := range cfg.Checkers {
			checkerSet[c] = true
		}
		if cfg.GenBump != "" {
			checkerSet[cfg.GenBump] = true
		}

		facts := map[string]*funcFacts{}
		for _, key := range m.graph.keys {
			node := m.graph.Nodes[key]
			u, fd := node.Unit, node.Decl
			ff := &funcFacts{checks: map[string]bool{}, pos: fd, unit: u}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && isGuardedField(u.Info, sel, cfg) {
							ff.writesField = true
						}
					}
				case *ast.CallExpr:
					callee := calleeFunc(u.Info, n)
					if callee == nil || callee.Pkg() == nil {
						return true
					}
					if checkerSet[callee.Name()] && pathMatches(callee.Pkg().Path(), []string{cfg.SpecPkg}) {
						ff.checks[callee.Name()] = true
					}
					if m.pkgs[callee.Pkg().Path()] {
						ff.calls = append(ff.calls, callee.FullName())
					}
				}
				return true
			})
			facts[key] = ff
		}

		reaches := newReachability(facts)
		var ds []Diagnostic
		for key, ff := range facts {
			if !ff.pos.Name.IsExported() {
				continue
			}
			if !reaches.check(key, func(f *funcFacts) bool { return f.writesField }) {
				continue
			}
			var missing []string
			for _, checker := range cfg.Checkers {
				if !reaches.check(key, func(f *funcFacts) bool { return f.checks[checker] }) {
					missing = append(missing, checker)
				}
			}
			if len(missing) > 0 {
				ds = append(ds, ff.unit.Diag(ff.pos.Pos(),
					"exported %s mutates the %s.%s action set without invoking %s",
					ff.pos.Name.Name, cfg.SpecType, cfg.Field, strings.Join(missing, " and ")))
			}
			if cfg.GenBump != "" && !reaches.check(key, func(f *funcFacts) bool { return f.checks[cfg.GenBump] }) {
				ds = append(ds, ff.unit.Diag(ff.pos.Pos(),
					"exported %s mutates the %s.%s action set without bumping the spec generation (call %s)",
					ff.pos.Name.Name, cfg.SpecType, cfg.Field, cfg.GenBump))
			}
		}
		return ds
	}
	return a
}

// isGuardedField matches a selector of cfg.Field on cfg.SpecType in a
// package whose path ends with cfg.SpecPkg.
func isGuardedField(info *types.Info, sel *ast.SelectorExpr, cfg InvariantConfig) bool {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal || s.Obj().Name() != cfg.Field {
		return false
	}
	recv := s.Recv()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != cfg.SpecType || named.Obj().Pkg() == nil {
		return false
	}
	return pathMatches(named.Obj().Pkg().Path(), []string{cfg.SpecPkg})
}

// reachability memoizes "does some function reachable from key satisfy
// a predicate" queries over the static call graph.
type reachability struct {
	facts map[string]*funcFacts
}

func newReachability(facts map[string]*funcFacts) *reachability {
	return &reachability{facts: facts}
}

func (r *reachability) check(key string, pred func(*funcFacts) bool) bool {
	return r.dfs(key, pred, map[string]bool{})
}

func (r *reachability) dfs(key string, pred func(*funcFacts) bool, seen map[string]bool) bool {
	if seen[key] {
		return false
	}
	seen[key] = true
	ff, ok := r.facts[key]
	if !ok {
		return false
	}
	if pred(ff) {
		return true
	}
	for _, callee := range ff.calls {
		if r.dfs(callee, pred, seen) {
			return true
		}
	}
	return false
}
