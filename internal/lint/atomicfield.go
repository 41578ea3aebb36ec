package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewAtomicField builds the atomicfield analyzer: a struct field
// accessed through sync/atomic anywhere in the module must be accessed
// atomically everywhere. Two idioms are covered:
//
//   - classic fields (plain integer fields driven through
//     atomic.AddInt64(&s.f, ...) and friends): every other access to
//     the same field must also be an &s.f argument to a sync/atomic
//     call — a plain load or store is a race;
//   - wrapper fields (atomic.Int64, atomic.Bool, ...): the field may
//     only be used as a method receiver or have its address taken —
//     reading or copying the wrapper value bypasses the atomic API
//     (obs counters are exactly this shape).
//
// Field identity is matched by package path + receiver type name +
// field name, so source-checked and export-data views of the same
// field agree. Accesses through embedded promotions resolve to the
// promoting type and are not correlated with direct accesses.
func NewAtomicField() *Analyzer {
	a := &Analyzer{
		Name: "atomicfield",
		Doc:  "fields accessed via sync/atomic must be accessed atomically everywhere",
	}
	a.RunModule = func(m *Module) []Diagnostic {
		units := m.Units
		// Phase 1: collect every classic field that some sync/atomic
		// call targets, module-wide.
		classic := map[string]bool{}
		for _, u := range units {
			for _, f := range u.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || !isAtomicCall(u.Info, call) || len(call.Args) == 0 {
						return true
					}
					if sel, ok := addrOfSelector(call.Args[0]); ok {
						if key, ok := fieldKey(u.Info, sel); ok {
							classic[key] = true
						}
					}
					return true
				})
			}
		}

		// Phase 2: flag non-atomic accesses to classic fields and
		// value uses of atomic wrapper fields.
		var ds []Diagnostic
		for _, u := range units {
			for _, f := range u.Files {
				parents := parentMap(f)
				ast.Inspect(f, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					key, isField := fieldKey(u.Info, sel)
					if !isField {
						return true
					}
					if classic[key] && !isAtomicArg(u.Info, sel, parents) {
						ds = append(ds, u.Diag(sel.Pos(),
							"non-atomic access to field %s, which is accessed with sync/atomic elsewhere in the module", key))
						return true
					}
					if isAtomicWrapperType(u.Info.Selections[sel].Type()) && !inAtomicSafeContext(sel, parents) {
						ds = append(ds, u.Diag(sel.Pos(),
							"field %s has an atomic type but is used as a plain value; call its atomic methods instead", key))
					}
					return true
				})
			}
		}
		return ds
	}
	return a
}

// isAtomicCall reports whether call statically targets a function of
// package sync/atomic.
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil
}

// addrOfSelector matches the expression &x.f.
func addrOfSelector(e ast.Expr) (*ast.SelectorExpr, bool) {
	un, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil, false
	}
	sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
	return sel, ok
}

// fieldKey names a field selection as pkgpath.Recv.field; ok is false
// when sel is not a struct-field selection.
func fieldKey(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	recv := s.Recv()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return "", false
	}
	tn := named.Obj()
	pkg := ""
	if tn.Pkg() != nil {
		pkg = tn.Pkg().Path()
	}
	return pkg + "." + tn.Name() + "." + s.Obj().Name(), true
}

// isAtomicArg reports whether sel occurs as &sel passed directly to a
// sync/atomic call — the only sanctioned access to a classic field.
func isAtomicArg(info *types.Info, sel *ast.SelectorExpr, parents map[ast.Node]ast.Node) bool {
	p := skipParens(parents, sel)
	un, ok := p.(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return false
	}
	call, ok := skipParens(parents, un).(*ast.CallExpr)
	return ok && isAtomicCall(info, call)
}

// inAtomicSafeContext reports whether an atomic-wrapper-typed
// expression is used safely: as the receiver of a method call, as an
// operand of &, as the base of an index that is itself used safely, or
// as a len/cap argument.
func inAtomicSafeContext(e ast.Expr, parents map[ast.Node]ast.Node) bool {
	switch p := skipParens(parents, e).(type) {
	case *ast.SelectorExpr:
		return p.X == e || parenBase(p.X) == e // method selection x.f.Load
	case *ast.UnaryExpr:
		return p.Op == token.AND
	case *ast.IndexExpr:
		if parenBase(p.X) != e {
			return false
		}
		return inAtomicSafeContext(p, parents)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(p.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
			return true
		}
	}
	return false
}

func skipParens(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	p := parents[n]
	for {
		par, ok := p.(*ast.ParenExpr)
		if !ok {
			return p
		}
		p = parents[par]
	}
}

func parenBase(e ast.Expr) ast.Expr { return ast.Unparen(e) }

// isAtomicWrapperType reports whether t is one of sync/atomic's
// wrapper types (atomic.Int64, atomic.Bool, atomic.Pointer[T], ...) or
// an array of them.
func isAtomicWrapperType(t types.Type) bool {
	switch tt := t.(type) {
	case *types.Array:
		return isAtomicWrapperType(tt.Elem())
	case *types.Named:
		tn := tt.Obj()
		return tn.Pkg() != nil && tn.Pkg().Path() == "sync/atomic"
	}
	return false
}
