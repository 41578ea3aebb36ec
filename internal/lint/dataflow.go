package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file holds the flow-insensitive local-definition table purity
// reads to resolve a write through a pointer.

// localDefs is the flow-insensitive definition table of one function:
// for each variable assigned anywhere in decl, function literals
// included, every expression a one-to-one `=`, `:=` or `var … = …`
// assigns it. A definition with no such expression (a parameter, a
// multi-value assignment, a range binding, an inc/dec, a zero-value
// declaration) is not recorded: it cannot hold a package variable's
// address.
func localDefs(info *types.Info, decl *ast.FuncDecl) map[*types.Var][]ast.Expr {
	defs := map[*types.Var][]ast.Expr{}
	add := func(id *ast.Ident, rhs ast.Expr) {
		v, ok := info.Defs[id].(*types.Var)
		if !ok {
			v, _ = info.Uses[id].(*types.Var)
		}
		if v != nil {
			defs[v] = append(defs[v], rhs)
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// v += x redefines v but x is not the defining expression.
			if len(n.Lhs) != len(n.Rhs) || (n.Tok != token.ASSIGN && n.Tok != token.DEFINE) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
					add(id, n.Rhs[i])
				}
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, s := range gd.Specs {
				vs, ok := s.(*ast.ValueSpec)
				if !ok || len(vs.Values) != len(vs.Names) {
					continue
				}
				for i, name := range vs.Names {
					if name.Name != "_" {
						add(name, vs.Values[i])
					}
				}
			}
		}
		return true
	})
	return defs
}
