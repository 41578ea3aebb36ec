package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file holds the flow-insensitive local-definition table: every
// definition of each function-local variable, the evidence lockfield's
// fresh-allocation exemption and purity's pointer resolution read.

// Def is one definition of a function-local variable: a parameter, a
// declaration, an assignment, a range clause binding or an inc/dec.
type Def struct {
	Node ast.Node // the defining node (nil for parameters/receivers)
	// Rhs is the defining expression when the definition is a simple
	// one-to-one assignment or initialization (v = rhs); nil otherwise
	// (parameters, multi-value assignments, range bindings, inc/dec,
	// zero-value declarations).
	Rhs ast.Expr
}

// localDefs is the flow-insensitive definition table of one function:
// every definition of each variable anywhere in decl, function
// literals included, with the receiver, parameters and named results
// entered with a nil Node. Variables it never saw defined (package
// vars, a closure's own parameters) are absent; clients treat that as
// "unknown".
func localDefs(info *types.Info, decl *ast.FuncDecl) map[*types.Var][]Def {
	defs := map[*types.Var][]Def{}
	add := func(v *types.Var, node ast.Node, rhs ast.Expr) {
		if v != nil {
			defs[v] = append(defs[v], Def{Node: node, Rhs: rhs})
		}
	}
	for _, fl := range []*ast.FieldList{decl.Recv, decl.Type.Params, decl.Type.Results} {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				v, _ := info.Defs[name].(*types.Var)
				add(v, nil, nil)
			}
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		forEachDef(info, n, add)
		return true
	})
	return defs
}

// forEachDef enumerates the variable definitions a single node makes
// (it does not descend into the node's children).
func forEachDef(info *types.Info, n ast.Node, f func(v *types.Var, node ast.Node, rhs ast.Expr)) {
	defOrUse := func(id *ast.Ident) *types.Var {
		if v, ok := info.Defs[id].(*types.Var); ok {
			return v
		}
		v, _ := info.Uses[id].(*types.Var)
		return v
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		// v += x redefines v but x is not the defining expression.
		oneToOne := len(n.Lhs) == len(n.Rhs) &&
			(n.Tok == token.ASSIGN || n.Tok == token.DEFINE)
		for i, lhs := range n.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			var rhs ast.Expr
			if oneToOne {
				rhs = n.Rhs[i]
			}
			f(defOrUse(id), n, rhs)
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, s := range gd.Specs {
			vs, ok := s.(*ast.ValueSpec)
			if !ok {
				continue
			}
			oneToOne := len(vs.Values) == len(vs.Names)
			for i, name := range vs.Names {
				if name.Name == "_" {
					continue
				}
				var rhs ast.Expr
				if oneToOne {
					rhs = vs.Values[i]
				}
				f(defOrUse(name), n, rhs)
			}
		}
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
			f(defOrUse(id), n, nil)
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if e == nil {
				continue
			}
			if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name != "_" {
				f(defOrUse(id), n, nil)
			}
		}
	}
}
