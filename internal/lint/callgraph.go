package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file builds the module-wide call graph the interprocedural
// analyzers (snapalias, clonecheck, purity) share. Nodes are the
// function and method declarations of the loaded units, keyed by
// types.Func.FullName(); edges are the module-internal functions a body
// references. Three reference forms produce edges:
//
//   - direct calls (f(x), recv.M(x)), resolved through types.Info.Uses;
//   - method values and function values (g := recv.M; hof(f)) — the
//     referenced function runs eventually, so its effects belong in the
//     caller's closure;
//   - calls and references inside function literals, attributed to the
//     enclosing declaration: a closure is part of the function that
//     builds it, whether it runs inline, deferred, or on a goroutine.
//
// Dynamic dispatch (interface methods, calls through untracked function
// values) stays invisible, matching the rest of the suite: summaries
// over such edges would be vacuous anyway, and the engine's hot paths
// are monomorphic.

// CGNode is one declared function in the module call graph.
type CGNode struct {
	Unit  *Unit
	Decl  *ast.FuncDecl
	Fn    *types.Func
	Calls []string // FullNames of referenced module functions, deduped, sorted
}

// CallGraph is the module-wide static call graph.
type CallGraph struct {
	Nodes map[string]*CGNode
	keys  []string // sorted node keys, for deterministic traversal
}

// BuildCallGraph constructs the call graph over every function declared
// in the loaded units.
func BuildCallGraph(units []*Unit) *CallGraph {
	pkgs := modulePkgs(units)

	cg := &CallGraph{Nodes: map[string]*CGNode{}}
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &CGNode{Unit: u, Decl: fd, Fn: fn}
				node.Calls = referencedFuncs(u.Info, fd.Body, pkgs)
				cg.Nodes[fn.FullName()] = node
			}
		}
	}
	for k := range cg.Nodes {
		cg.keys = append(cg.keys, k)
	}
	sort.Strings(cg.keys)
	return cg
}

// referencedFuncs collects the FullNames of module-internal functions a
// body references: call targets plus method/function values. Function
// literals are descended into — their references belong to the
// enclosing declaration.
func referencedFuncs(info *types.Info, body *ast.BlockStmt, modulePkgs map[string]bool) []string {
	set := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil || !modulePkgs[fn.Pkg().Path()] {
			return true
		}
		// Origin: a method of an instantiated generic type is the node its
		// declaration made.
		set[fn.Origin().FullName()] = true
		return true
	})
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SCCs returns the graph's strongly connected components in bottom-up
// (callee-first) order: every edge out of a component lands in an
// earlier one, so summaries computed in emission order see their
// callees' summaries already final (mutually recursive functions share
// a component and iterate to a joint fixpoint). The order is
// deterministic: roots are visited in sorted key order.
func (cg *CallGraph) SCCs() [][]string {
	return tarjanSCCs(cg.keys, func(v string) []string {
		var succ []string
		for _, w := range cg.Nodes[v].Calls {
			if _, isNode := cg.Nodes[w]; isNode { // else external or dynamic: no summary to order
				succ = append(succ, w)
			}
		}
		return succ
	})
}

// tarjanSCCs returns the strongly connected components of the graph
// over nodes in reverse topological order (every edge out of a
// component lands in an earlier one), each component sorted. Roots are
// visited in the order given and successors in the order succ returns
// them, so sorted inputs make the result deterministic.
func tarjanSCCs(nodes []string, succ func(string) []string) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = len(index)
		low[v] = index[v]
		stack = append(stack, v)
		onStack[v] = true

		for _, w := range succ(v) {
			if _, visited := index[w]; !visited {
				strongconnect(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}

		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}

	for _, v := range nodes {
		if _, visited := index[v]; !visited {
			strongconnect(v)
		}
	}
	return sccs
}
