package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DefaultNowflowRestricted lists the packages (by path suffix) whose
// evaluation-time plumbing the nowflow analyzer polices: the
// specification semantics and the physical subcube engine. These are
// the places where a caltime.Day is *the* NOW of Definitions 2–4 and
// must be threaded explicitly.
var DefaultNowflowRestricted = []string{
	"internal/spec",
	"internal/specexec",
	"internal/subcube",
	"internal/views",
	"internal/warehouse",
	"internal/ingest",
}

// NewNowflow builds the nowflow analyzer: a forward taint analysis
// sharpening the wallclock ban. The paper's semantics (Definitions
// 2–4, Section 4.2) make evaluation time an explicit parameter; a
// caltime.Day that reaches an evaluation-time position must therefore
// descend from a parameter, a field, or a clock seam — never from a
// literal or an ad-hoc construction conjured at the use site.
//
// Taint sources (ad-hoc days):
//   - any constant-valued expression of type caltime.Day (Day(7),
//     untyped literals adopting Day, named Day constants);
//   - caltime.Date / caltime.ParseDay calls whose arguments are all
//     constant;
//   - zero-value declarations (var t caltime.Day);
//   - reads of package-level Day variables.
//
// Everything else blesses: parameters, struct-field reads, results of
// other calls, range bindings, and arithmetic anchored at a blessed
// value (t-1 is an offset from t, not an ad-hoc day).
//
// Taint sinks:
//   - a call argument of type caltime.Day bound to a callee parameter
//     named t or now;
//   - an assignment of a tainted value to a Day-typed struct field
//     (persisted evaluation state such as Warehouse.now).
func NewNowflow(restricted []string) *Analyzer {
	a := &Analyzer{
		Name: "nowflow",
		Doc: "evaluation-time caltime.Day values must flow from an explicit t/now parameter " +
			"or clock seam, never from a literal or ad-hoc construction (Defs. 2-4)",
	}
	a.Run = func(u *Unit) []Diagnostic {
		if !pathMatches(u.Path, restricted) {
			return nil
		}
		var ds []Diagnostic
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ds = append(ds, nowflowFunc(u, fd)...)
			}
		}
		return ds
	}
	return a
}

// taintSet maps Day-typed local variables to "tainted" (ad-hoc
// origin). Absent means blessed.
type taintSet map[*types.Var]bool

func (s taintSet) clone() taintSet {
	c := make(taintSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func taintUnion(a, b taintSet) taintSet {
	c := a.clone()
	for k, v := range b {
		if v {
			c[k] = true
		}
	}
	return c
}

func taintEqual(a, b taintSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func nowflowFunc(u *Unit, fd *ast.FuncDecl) []Diagnostic {
	g := BuildCFG(fd.Body)
	nf := &nowflow{u: u}

	in := Solve(g, Problem[taintSet]{
		Boundary: taintSet{},
		Merge:    taintUnion,
		Equal:    taintEqual,
		Transfer: func(b *Block, in taintSet) taintSet {
			cur := in.clone()
			for _, n := range b.Nodes {
				nf.transfer(n, cur)
			}
			return cur
		},
	})

	var ds []Diagnostic
	for _, blk := range g.Blocks {
		facts, ok := in[blk]
		if !ok {
			continue // unreachable
		}
		cur := facts.clone()
		for _, n := range blk.Nodes {
			ds = append(ds, nf.checkNode(n, cur)...)
			nf.transfer(n, cur)
		}
	}
	return ds
}

type nowflow struct {
	u *Unit
}

// isDayType reports whether t is (an alias of) caltime.Day.
func isDayType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	return tn.Name() == "Day" && tn.Pkg() != nil &&
		pathMatches(tn.Pkg().Path(), []string{"internal/caltime"})
}

// isCaltimeConstructor matches the caltime entry points that
// manufacture a Day from scalars.
func isCaltimeConstructor(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if !pathMatches(fn.Pkg().Path(), []string{"internal/caltime"}) {
		return false
	}
	return fn.Name() == "Date" || fn.Name() == "ParseDay"
}

// tainted reports whether e evaluates to an ad-hoc Day under the
// current taint facts.
func (nf *nowflow) tainted(e ast.Expr, set taintSet) bool {
	e = ast.Unparen(e)
	tv, ok := nf.u.Info.Types[e]
	if ok && tv.Value != nil {
		return isDayType(tv.Type)
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := nf.u.Info.Uses[e]
		v, ok := obj.(*types.Var)
		if !ok || !isDayType(v.Type()) {
			return false
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level Day variable: a pinned ad-hoc day
		}
		return set[v]
	case *ast.UnaryExpr:
		return nf.tainted(e.X, set)
	case *ast.BinaryExpr:
		// Arithmetic anchored at any blessed Day operand is blessed:
		// t-1 is an offset from t. Only all-ad-hoc arithmetic taints.
		if e.Op != token.ADD && e.Op != token.SUB {
			return false
		}
		lDay := nf.isDayExpr(e.X)
		rDay := nf.isDayExpr(e.Y)
		if !lDay && !rDay {
			return false
		}
		taint := true
		if lDay && !nf.tainted(e.X, set) {
			taint = false
		}
		if rDay && !nf.tainted(e.Y, set) {
			taint = false
		}
		return taint
	case *ast.CallExpr:
		// Conversion Day(x): taint follows the operand.
		if tv, ok := nf.u.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			if isDayType(tv.Type) {
				return nf.tainted(e.Args[0], set)
			}
			return false
		}
		fn := calleeFunc(nf.u.Info, e)
		if isCaltimeConstructor(fn) {
			allConst := true
			for _, arg := range e.Args {
				if atv, ok := nf.u.Info.Types[arg]; !ok || atv.Value == nil {
					allConst = false
					break
				}
			}
			return allConst
		}
		return false
	}
	return false
}

func (nf *nowflow) isDayExpr(e ast.Expr) bool {
	tv, ok := nf.u.Info.Types[e]
	return ok && tv.Type != nil && isDayType(tv.Type)
}

// transfer applies one CFG node's effect on the taint facts, mutating
// set in place (callers pass a private clone).
func (nf *nowflow) transfer(n ast.Node, set taintSet) {
	localDay := func(id *ast.Ident) *types.Var {
		var v *types.Var
		if dv, ok := nf.u.Info.Defs[id].(*types.Var); ok {
			v = dv
		} else if uv, ok := nf.u.Info.Uses[id].(*types.Var); ok {
			v = uv
		}
		if v == nil || !isDayType(v.Type()) {
			return nil
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return nil // package-level: handled as a source, not state
		}
		return v
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		oneToOne := len(n.Lhs) == len(n.Rhs) &&
			(n.Tok == token.ASSIGN || n.Tok == token.DEFINE)
		for i, lhs := range n.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			v := localDay(id)
			if v == nil {
				continue
			}
			switch {
			case oneToOne:
				if nf.tainted(n.Rhs[i], set) {
					set[v] = true
				} else {
					delete(set, v)
				}
			case n.Tok == token.ASSIGN || n.Tok == token.DEFINE:
				delete(set, v) // multi-value: a call result, blessed
			}
			// op=: the anchor does not change; leave the fact as is.
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
			for i, name := range vs.Names {
				v := localDay(name)
				if v == nil {
					continue
				}
				switch {
				case len(vs.Values) == 0:
					set[v] = true // var t caltime.Day: the zero day is ad hoc
				case len(vs.Values) == len(vs.Names):
					if nf.tainted(vs.Values[i], set) {
						set[v] = true
					} else {
						delete(set, v)
					}
				default:
					delete(set, v)
				}
			}
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if e == nil {
				continue
			}
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				if v := localDay(id); v != nil {
					delete(set, v) // iterating stored data: blessed
				}
			}
		}
	}
}

// evalTimeParams are the parameter names that mark an argument
// position as "the evaluation time".
var evalTimeParams = map[string]bool{"t": true, "now": true}

// checkNode scans one CFG node for taint sinks under the given facts.
func (nf *nowflow) checkNode(n ast.Node, set taintSet) []Diagnostic {
	var ds []Diagnostic
	for _, part := range shallowParts(n) {
		inspectNoFuncLit(part, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.CallExpr:
				ds = append(ds, nf.checkCall(x, set)...)
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
					if !ok || len(x.Lhs) != len(x.Rhs) {
						continue
					}
					key, isField := fieldKey(nf.u.Info, sel)
					if !isField || !nf.isDayExpr(lhs) {
						continue
					}
					if x.Tok == token.ASSIGN && nf.tainted(x.Rhs[i], set) {
						ds = append(ds, nf.u.Diag(x.Rhs[i].Pos(),
							"caltime.Day field %s is assigned an ad-hoc day; evaluation time must flow from an explicit t/now parameter or clock seam", key))
					}
				}
			}
			return true
		})
	}
	return ds
}

func (nf *nowflow) checkCall(call *ast.CallExpr, set taintSet) []Diagnostic {
	fn := calleeFunc(nf.u.Info, call)
	if fn == nil || isCaltimeConstructor(fn) {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params() == nil {
		return nil
	}
	var ds []Diagnostic
	np := sig.Params().Len()
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= np-1 {
			pi = np - 1
		}
		if pi >= np {
			break
		}
		p := sig.Params().At(pi)
		pt := p.Type()
		if sig.Variadic() && pi == np-1 {
			if sl, ok := pt.(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if !evalTimeParams[p.Name()] || !isDayType(pt) {
			continue
		}
		if nf.tainted(arg, set) {
			ds = append(ds, nf.u.Diag(arg.Pos(),
				"ad-hoc caltime.Day passed as evaluation time %q of %s; thread the caller's explicit t/now (Defs. 2-4)",
				p.Name(), fn.Name()))
		}
	}
	return ds
}
