package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file holds the generic iterative dataflow solver and its
// canonical client, reaching definitions. Analyzers instantiate
// Problem with their own fact lattice (taint sets for nowflow,
// locksets for lockfield, definition bitsets here) and get a
// flow-sensitive fixpoint over the CFG from cfg.go.

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
// Reaching definitions.

// Def is one definition of a function-local variable: a parameter, a
// declaration, an assignment, a range clause binding or an inc/dec.
type Def struct {
	Var  *types.Var
	Node ast.Node // the defining node (nil for parameters/receivers)
	// Rhs is the defining expression when the definition is a simple
	// one-to-one assignment or initialization (v = rhs); nil otherwise
	// (parameters, multi-value assignments, range bindings, inc/dec,
	// zero-value declarations).
	Rhs ast.Expr
}

// defBits is a bitset over the definition index space.
type defBits []uint64

func newDefBits(n int) defBits { return make(defBits, (n+63)/64) }

func (d defBits) set(i int)      { d[i/64] |= 1 << (i % 64) }
func (d defBits) clear(i int)    { d[i/64] &^= 1 << (i % 64) }
func (d defBits) has(i int) bool { return d[i/64]&(1<<(i%64)) != 0 }

func (d defBits) clone() defBits {
	c := make(defBits, len(d))
	copy(c, d)
	return c
}

func (d defBits) union(o defBits) defBits {
	c := d.clone()
	for i := range o {
		c[i] |= o[i]
	}
	return c
}

func (d defBits) equal(o defBits) bool {
	if len(d) != len(o) {
		return false
	}
	for i := range d {
		if d[i] != o[i] {
			return false
		}
	}
	return true
}

// ReachingDefs computes which definitions of each function-local
// variable may reach each program point. Variables it does not track
// (package-level, closed-over, field bases) have no definitions; a
// DefsAt query for them returns nil, which clients must treat as
// "unknown".
type ReachingDefs struct {
	g     *CFG
	defs  []Def
	byVar map[*types.Var][]int
	in    map[*Block]defBits
}

// NewReachingDefs builds and solves reaching definitions for a
// function. recv/params come from the declaration (may be nil for
// tests over bare bodies).
func NewReachingDefs(info *types.Info, decl *ast.FuncDecl, g *CFG) *ReachingDefs {
	rd := &ReachingDefs{g: g, byVar: map[*types.Var][]int{}}

	addDef := func(v *types.Var, node ast.Node, rhs ast.Expr) {
		if v == nil {
			return
		}
		rd.byVar[v] = append(rd.byVar[v], len(rd.defs))
		rd.defs = append(rd.defs, Def{Var: v, Node: node, Rhs: rhs})
	}
	paramVar := func(id *ast.Ident) *types.Var {
		v, _ := info.Defs[id].(*types.Var)
		return v
	}
	if decl != nil {
		if decl.Recv != nil {
			for _, f := range decl.Recv.List {
				for _, name := range f.Names {
					addDef(paramVar(name), nil, nil)
				}
			}
		}
		if decl.Type.Params != nil {
			for _, f := range decl.Type.Params.List {
				for _, name := range f.Names {
					addDef(paramVar(name), nil, nil)
				}
			}
		}
		if decl.Type.Results != nil {
			for _, f := range decl.Type.Results.List {
				for _, name := range f.Names {
					addDef(paramVar(name), nil, nil)
				}
			}
		}
	}

	// Collect definitions from block nodes, in block order.
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			forEachDef(info, n, addDef)
		}
	}

	boundary := newDefBits(len(rd.defs))
	for i, d := range rd.defs {
		if d.Node == nil { // parameters reach the entry
			boundary.set(i)
		}
	}

	rd.in = Solve(g, Problem[defBits]{
		Boundary: boundary,
		Merge:    defBits.union,
		Equal:    defBits.equal,
		Transfer: func(b *Block, in defBits) defBits {
			cur := in.clone()
			for _, n := range b.Nodes {
				rd.transferNode(info, n, cur)
			}
			return cur
		},
	})
	return rd
}

// transferNode kills and gens the definitions made by one node,
// mutating bits in place (callers pass a private clone).
func (rd *ReachingDefs) transferNode(info *types.Info, n ast.Node, bits defBits) {
	forEachDef(info, n, func(v *types.Var, node ast.Node, rhs ast.Expr) {
		idxs := rd.byVar[v]
		for _, i := range idxs {
			bits.clear(i)
		}
		for _, i := range idxs {
			if rd.defs[i].Node == node {
				bits.set(i)
			}
		}
	})
}

// forEachDef enumerates the variable definitions a single CFG node
// makes. Function literals are opaque.
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

// DefsAt returns the definitions of v that may reach the program point
// just before `at` within block b (at==nil: the block entry). nil
// means v is not tracked (not a function-local this analysis saw
// defined); an empty non-nil slice means tracked but nothing reaches
// (dead code).
func (rd *ReachingDefs) DefsAt(info *types.Info, b *Block, at ast.Node, v *types.Var) []Def {
	idxs := rd.byVar[v]
	if idxs == nil {
		return nil
	}
	bits, ok := rd.in[b]
	if !ok {
		return []Def{} // unreachable block
	}
	cur := bits.clone()
	for _, n := range b.Nodes {
		if n == at {
			break
		}
		rd.transferNode(info, n, cur)
	}
	out := []Def{}
	for _, i := range idxs {
		if cur.has(i) {
			out = append(out, rd.defs[i])
		}
	}
	return out
}
