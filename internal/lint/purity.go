package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AggregateDirective marks a function as a distributive default
// aggregate in the sense of the paper's Definition 6: Group_high may
// fold partial results in any association and any order, so the
// marked function — and everything it (statically) calls — must be
// referentially transparent. The purity analyzer enforces three
// concrete obligations over that transitive closure:
//
//   - no writes to package-level state (including writes through a
//     local pointer any of whose definitions takes a package var's
//     address);
//   - no ambient wall clock (time.Now/Since/Tick, or the obs.Clock
//     seam — an aggregate's value may not depend on when it runs);
//   - no iteration over a map (Go randomizes map order, so any
//     order-sensitive fold over a map is nondeterministic; iterate a
//     sorted slice instead).
//
// Purity is inferred over the module call graph (callgraph.go): the
// closure follows direct calls, calls made inside function literals,
// and referenced method/function values, so a sort.Slice comparator or
// a stored callback no longer hides an impurity. Dynamic dispatch
// through interfaces remains invisible, as everywhere in the suite.
const AggregateDirective = directivePrefix + "aggregate"

// purityFacts is what the purity analyzer records per function.
type purityFacts struct {
	unit     *Unit
	decl     *ast.FuncDecl
	marked   bool
	offenses []purityOffense
}

type purityOffense struct {
	unit *Unit
	node ast.Node
	desc string
}

// NewPurity builds the purity analyzer.
func NewPurity() *Analyzer {
	a := &Analyzer{
		Name: "purity",
		Doc: "functions marked " + AggregateDirective + " (distributive aggregates, Def. 6) must not " +
			"write package state, read the clock, or range over maps — transitively",
	}
	a.RunModule = func(m *Module) []Diagnostic {
		cg := m.graph

		facts := map[string]*purityFacts{}
		var roots []string
		for _, key := range cg.keys {
			node := cg.Nodes[key]
			pf := collectPurityFacts(node.Unit, node.Decl)
			pf.marked = m.dirs.aggregate[node.Decl]
			facts[key] = pf
			if pf.marked {
				roots = append(roots, key)
			}
		}
		sort.Strings(roots)

		// For each marked root, walk the static call graph and report
		// every offense in its closure. An offense site reachable from
		// several roots is reported once, blamed on the first root in
		// sorted order.
		reported := map[ast.Node]bool{}
		var ds []Diagnostic
		for _, root := range roots {
			rootName := facts[root].decl.Name.Name
			seen := map[string]bool{}
			var walk func(key string)
			walk = func(key string) {
				if seen[key] {
					return
				}
				seen[key] = true
				pf, ok := facts[key]
				if !ok {
					return
				}
				for _, off := range pf.offenses {
					if reported[off.node] {
						continue
					}
					reported[off.node] = true
					if key == root {
						ds = append(ds, off.unit.Diag(off.node.Pos(),
							"aggregate function %s %s; distributive aggregates (Def. 6) must be pure",
							rootName, off.desc))
					} else {
						ds = append(ds, off.unit.Diag(off.node.Pos(),
							"%s %s; it is reachable from aggregate function %s and must be pure (Def. 6)",
							pf.decl.Name.Name, off.desc, rootName))
					}
				}
				for _, callee := range cg.Nodes[key].Calls {
					walk(callee)
				}
			}
			walk(root)
		}
		return ds
	}
	return a
}

// collectPurityFacts gathers one function's purity offenses. Function
// literals are scanned as part of their enclosing declaration — the
// call graph attributes a closure's calls to the function that builds
// it, so its direct effects must count here too.
func collectPurityFacts(u *Unit, fd *ast.FuncDecl) *purityFacts {
	pf := &purityFacts{unit: u, decl: fd}
	var defs map[*types.Var][]ast.Expr // built on the first write through a pointer

	offend := func(n ast.Node, desc string) {
		pf.offenses = append(pf.offenses, purityOffense{unit: u, node: n, desc: desc})
	}
	checkWrite := func(lhs ast.Expr, stmt ast.Node) {
		lhs = ast.Unparen(lhs)
		if star, ok := lhs.(*ast.StarExpr); ok {
			// *p = x: flag when any definition of p in this function
			// takes the address of a package var.
			id, ok := ast.Unparen(star.X).(*ast.Ident)
			if !ok {
				return
			}
			v, _ := u.Info.Uses[id].(*types.Var)
			if v == nil {
				return
			}
			if defs == nil {
				defs = localDefs(u.Info, fd)
			}
			for _, rhs := range defs[v] {
				if un, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && un.Op == token.AND {
					if pv := packageLevelBase(u.Info, un.X); pv != nil {
						offend(stmt, "writes package variable "+pv.Name()+" through a pointer")
						return
					}
				}
			}
			return
		}
		if pv := packageLevelBase(u.Info, lhs); pv != nil {
			offend(stmt, "writes package variable "+pv.Name())
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(lhs, n)
			}
		case *ast.IncDecStmt:
			checkWrite(n.X, n)
		case *ast.RangeStmt:
			if tv, ok := u.Info.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					offend(n, "ranges over a map (iteration order is randomized)")
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(u.Info, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			pkgPath := fn.Pkg().Path()
			if pkgPath == "time" && forbiddenTimeFuncs[fn.Name()] {
				offend(n, "calls time."+fn.Name())
			}
			if pathMatches(pkgPath, []string{"internal/obs"}) && (fn.Name() == "Now" || fn.Name() == "Since") {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					offend(n, "reads the clock via obs."+fn.Name())
				}
			}
		}
		return true
	})
	return pf
}

// packageLevelBase resolves the root identifier of an lvalue chain
// (v, v.f, v[i], v.f[i].g, ...) and returns it when it names a
// package-level variable; nil otherwise.
func packageLevelBase(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			if v != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			// Qualified package var (pkg.V) or field chain (v.f).
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					v, _ := info.Uses[x.Sel].(*types.Var)
					if v != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
						return v
					}
					return nil
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
