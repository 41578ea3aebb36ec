package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file holds the generic iterative dataflow solver and the
// flow-insensitive local-definition table. Analyzers instantiate
// Problem with their own fact lattice (taint sets for nowflow,
// locksets for lockfield) and get a flow-sensitive fixpoint over the
// CFG from cfg.go.

// Problem is one forward dataflow problem over a CFG: facts flow from
// the entry block along Succs. The fact type F must be treated as
// immutable by Transfer and Merge: both return fresh (or shared) values
// and never mutate their arguments — the solver caches and compares
// facts across iterations.
type Problem[F any] struct {
	// Boundary is the fact entering the entry block.
	Boundary F
	// Transfer pushes a fact through one block.
	Transfer func(b *Block, in F) F
	// Merge joins facts at a control-flow confluence.
	Merge func(x, y F) F
	// Equal decides fixpoint convergence.
	Equal func(x, y F) bool
}

// Solve runs the worklist algorithm to fixpoint and returns the fact
// at each block's entry. Blocks unreachable from the entry block are
// absent from the result; for a finite-height lattice with monotone
// Transfer/Merge the loop terminates.
func Solve[F any](g *CFG, p Problem[F]) map[*Block]F {
	in := map[*Block]F{g.Entry: p.Boundary}
	out := map[*Block]F{}
	computed := map[*Block]bool{}
	queue := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		queued[b] = false

		o := p.Transfer(b, in[b])
		if computed[b] && p.Equal(out[b], o) {
			continue
		}
		out[b] = o
		computed[b] = true

		for _, s := range b.Succs {
			var acc F
			first := true
			for _, pr := range s.Preds {
				po, ok := out[pr]
				if !ok {
					continue
				}
				if first {
					acc, first = po, false
				} else {
					acc = p.Merge(acc, po)
				}
			}
			if first {
				continue
			}
			old, seen := in[s]
			if seen && p.Equal(old, acc) {
				continue
			}
			in[s] = acc
			if !queued[s] {
				queued[s] = true
				queue = append(queue, s)
			}
		}
	}
	return in
}

// ---------------------------------------------------------------------
// Local definitions.

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
