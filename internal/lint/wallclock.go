package lint

import (
	"go/ast"
	"go/types"
)

// DefaultWallclockRestricted lists the packages (by path suffix) in
// which the ambient wall clock is forbidden: the semantic packages,
// where every evaluation takes an explicit caltime.Day per the paper's
// NOW-relative semantics (Section 4.2), and the engine packages whose
// stage timing must flow through the obs.Clock seam so tests can fake
// it. internal/obs itself is the sanctioned wall-clock owner.
var DefaultWallclockRestricted = []string{
	"internal/core",
	"internal/spec",
	"internal/specexec",
	"internal/expr",
	"internal/mdm",
	"internal/query",
	"internal/prover",
	"internal/caltime",
	"internal/subcube",
	"internal/views",
	"internal/warehouse",
	"internal/ingest",
}

// forbiddenTimeFuncs are the time-package entry points that read the
// ambient clock. Constructors like NewTicker are deliberately absent:
// none of the restricted packages may import them for other reasons,
// and the three below are the ones that smuggle an implicit NOW.
var forbiddenTimeFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Tick":  true,
}

// NewWallclock builds the wallclock analyzer for the given restricted
// package-path suffixes.
func NewWallclock(restricted []string) *Analyzer {
	a := &Analyzer{
		Name: "wallclock",
		Doc: "forbid time.Now/time.Since/time.Tick in semantic packages; " +
			"evaluation time must be an explicit parameter and stage timing must use the obs.Clock seam",
	}
	a.Run = func(u *Unit) []Diagnostic {
		if !pathMatches(u.Path, restricted) {
			return nil
		}
		var ds []Diagnostic
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(u.Info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
					return true
				}
				if forbiddenTimeFuncs[fn.Name()] {
					ds = append(ds, u.Diag(call.Pos(),
						"call to time.%s in semantic package %s: evaluation time must flow in as a parameter (wall-clock timing goes through obs.Clock)",
						fn.Name(), u.Path))
				}
				return true
			})
		}
		return ds
	}
	return a
}

// calleeFunc resolves a call's static callee, or nil for indirect
// calls, conversions and builtins. A method of an instantiated generic
// type resolves to the method as declared, the one the call graph and the
// summaries are keyed by.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}
