package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ImmutableDirective marks a struct type whose instances are published
// to lock-free readers (the warehouse's epoch snapshots): after
// construction, nothing reachable from a marked value may be written.
// Mutating a published instance races with readers that pinned it
// without taking any lock, so no lock excuses such a write.
const ImmutableDirective = directivePrefix + "immutable"

// snapalias is the one check of the epoch-snapshot publish boundary.
// It flags every write to a value derived from a //dimred:immutable
// type: a direct field store on a parameter, a field chain or a local
// alias, and a store through a map, slice or pointer derived from a
// marked value (a getter's return, a field read, an argument passed
// down a call chain, a capture in a closure). A value freshly built in
// the function (&T{...}, var x T) derives from nothing, so
// constructors stay silent; a constructor's *result* is as published
// as any other marked value.
//
// The analysis is summary-based. Every declared function gets an
// escape summary — which parameters it may write through, which
// parameters its results may alias, and whether a result may alias
// //dimred:immutable state — computed bottom-up over the module call
// graph in SCC order (mutually recursive functions iterate to a joint
// fixpoint). Within a function, a flow-insensitive origin analysis
// tags every variable with the parameters and marked types its value
// may derive from; function literals are analyzed as part of their
// enclosing declaration, so closure captures and goroutine bodies are
// covered.
//
// A write (assignment through a selector/index/dereference, inc/dec,
// the append/copy/delete/clear builtins, a call whose summary writes a
// parameter, or a method value bound to a receiver its method writes)
// is an offense when the written value derives from a marked type, and
// otherwise contributes to the enclosing function's writes-parameter
// summary so the offense surfaces at the call site that supplies the
// marked value.
//
// Derivation stops at struct fields annotated //dimred:shared: the
// annotation is a reviewed claim that the field's object is safe to
// mutate while shared (internally synchronized, or redirected before
// the writes happen). Mutations made through sync/atomic are invisible
// by construction — atomic methods are stdlib calls with no summary.
// Dynamic calls (interface methods, untracked function values) are not
// followed, and aliases stored into unmarked heap objects are not
// tracked; those limits match the rest of the suite.

// escapeSummary is one function's interprocedural escape facts.
// Parameter bits: the receiver (when present) is bit 0 and parameters
// follow; without a receiver, parameters start at bit 0. Functions
// beyond 64 parameters fall off the analysis silently.
type escapeSummary struct {
	writesParam  uint64 // may write through the parameter
	returnsParam uint64 // a result may alias the parameter
	returnsImmut bool   // a result may alias //dimred:immutable state
	immutType    string // representative marked type, for diagnostics
}

// origin records what a value may derive from.
type origin struct {
	params    uint64
	immut     bool
	immutType string
}

func (o origin) or(p origin) origin {
	o.params |= p.params
	if p.immut && !o.immut {
		o.immut = true
		o.immutType = p.immutType
	}
	return o
}

func (o origin) empty() bool { return o.params == 0 && !o.immut }

// NewSnapAlias builds the snapalias analyzer.
func NewSnapAlias() *Analyzer {
	a := &Analyzer{
		Name: "snapalias",
		Doc: "references derived from " + ImmutableDirective + " values (returns, parameters, " +
			"closures) must never reach a write; published snapshots are read by lock-free pinned readers",
	}
	a.RunModule = func(m *Module) []Diagnostic {
		if len(m.dirs.immutable) == 0 {
			return nil
		}
		// Reporting pass with the final summaries.
		sums := computeEscapeSummaries(m.graph, m.dirs.immutable, m.dirs.shared)
		var ds []Diagnostic
		for _, key := range m.graph.keys {
			fa := newSnapAnalysis(m.graph.Nodes[key], m.dirs.immutable, m.dirs.shared, sums)
			fa.report = true
			fa.run()
			ds = append(ds, fa.diags...)
		}
		return ds
	}
	return a
}

// computeEscapeSummaries runs the bottom-up summary fixpoint: callee
// SCCs first, each SCC iterated until its summaries stop growing. The
// marked set (the //dimred:immutable types) decides what "derives from
// published state" means.
func computeEscapeSummaries(cg *CallGraph, marked map[string]bool, shared map[string]sharedField) map[string]*escapeSummary {
	summaries := map[string]*escapeSummary{}
	for _, scc := range cg.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, key := range scc {
				fa := newSnapAnalysis(cg.Nodes[key], marked, shared, summaries)
				sum := fa.run()
				if old := summaries[key]; old == nil || *old != sum {
					summaries[key] = &sum
					changed = true
				}
			}
		}
	}
	return summaries
}

// snapAnalysis analyzes one function declaration.
type snapAnalysis struct {
	u         *Unit
	decl      *ast.FuncDecl
	immutable map[string]bool
	shared    map[string]sharedField
	summaries map[string]*escapeSummary
	report    bool

	state map[*types.Var]origin
	sum   escapeSummary
	diags []Diagnostic
}

func newSnapAnalysis(node *CGNode, immutable map[string]bool, shared map[string]sharedField, summaries map[string]*escapeSummary) *snapAnalysis {
	return &snapAnalysis{
		u:         node.Unit,
		decl:      node.Decl,
		immutable: immutable,
		shared:    shared,
		summaries: summaries,
		state:     map[*types.Var]origin{},
	}
}

func (fa *snapAnalysis) run() escapeSummary {
	fa.seedParams()
	for fa.propagate() {
	}
	forEachWrite(fa.u.Info, fa.decl.Body, fa.summaries, fa.recordWrite)
	fa.scanReturns()
	return fa.sum
}

// seedParams assigns parameter bits (receiver first) and seeds each
// parameter's origin: its own bit, plus marked-type derivation when the
// parameter's type is (a pointer to) a //dimred:immutable type.
func (fa *snapAnalysis) seedParams() {
	bit := 0
	seedList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			n := len(field.Names)
			if n == 0 {
				n = 1 // unnamed parameter still occupies a position
			}
			for i := 0; i < n; i++ {
				if i < len(field.Names) {
					if v, ok := fa.u.Info.Defs[field.Names[i]].(*types.Var); ok && bit < 64 && !refFree(v.Type()) {
						o := origin{params: 1 << bit}
						fa.state[v] = o.or(fa.typeOrigin(v.Type()))
					}
				}
				bit++
			}
		}
	}
	seedList(fa.decl.Recv)
	seedList(fa.decl.Type.Params)
}

// propagate applies every assignment-like binding in the body once
// (function literals included) and reports whether any origin grew.
func (fa *snapAnalysis) propagate() bool {
	changed := false
	bind := func(lhs ast.Expr, o origin) {
		if o.empty() {
			return
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		v := fa.varOf(id)
		if v == nil {
			return
		}
		merged := fa.state[v].or(o)
		if merged != fa.state[v] {
			fa.state[v] = merged
			changed = true
		}
	}
	ast.Inspect(fa.decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i, lhs := range st.Lhs {
					bind(lhs, fa.exprOrigins(st.Rhs[i]))
				}
			} else if len(st.Rhs) == 1 {
				o := fa.exprOrigins(st.Rhs[0])
				for _, lhs := range st.Lhs {
					bind(lhs, o)
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == len(st.Values) {
				for i, name := range st.Names {
					bind(name, fa.exprOrigins(st.Values[i]))
				}
			} else if len(st.Values) == 1 {
				o := fa.exprOrigins(st.Values[0])
				for _, name := range st.Names {
					bind(name, o)
				}
			}
		case *ast.RangeStmt:
			o := fa.exprOrigins(st.X)
			if st.Key != nil {
				bind(st.Key, o)
			}
			if st.Value != nil {
				bind(st.Value, o)
			}
		}
		return true
	})
	return changed
}

// writeKind classifies how a value is mutated, so the finding can say
// which.
type writeKind int

const (
	writeDirect      writeKind = iota // assignment/inc-dec through selector, index, deref
	writeBuiltin                      // append/copy/delete/clear
	writeCall                         // call whose summary writes the argument
	writeMethodValue                  // method value bound to a receiver its method writes
)

// writeSite is one syntactic write: target is the expression whose
// referent is mutated (the container of an assigned element, a mutating
// builtin's first argument, the argument or receiver a callee writes
// through).
type writeSite struct {
	pos    token.Pos
	target ast.Expr
	kind   writeKind
	op     string // builtin, callee or method name; "" for writeDirect
}

// forEachWrite reports every write site under root, function literals
// included. An assignment or inc/dec
// target that reaches through a selector, index or dereference writes
// the container object (a plain identifier target only rebinds a
// variable); append, copy, delete and clear write their first argument;
// a summarized callee's writes-parameter bits map back to the receiver
// and argument expressions supplied at the call; and a method value
// binds its receiver, so if the method writes through it the binding is
// as good as the write.
func forEachWrite(info *types.Info, root ast.Node, summaries map[string]*escapeSummary, emit func(writeSite)) {
	lvalue := func(lhs ast.Expr) {
		switch x := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				emit(writeSite{pos: x.Pos(), target: x.X})
			}
		case *ast.IndexExpr:
			emit(writeSite{pos: x.Pos(), target: x.X})
		case *ast.StarExpr:
			emit(writeSite{pos: x.Pos(), target: x.X})
		}
	}
	// Selectors consumed as call targets are calls, not method values;
	// the walk meets a call before its target.
	called := map[*ast.SelectorExpr]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				lvalue(lhs)
			}
		case *ast.IncDecStmt:
			lvalue(x.X)
		case *ast.CallExpr:
			switch fun := ast.Unparen(x.Fun).(type) {
			case *ast.SelectorExpr:
				called[fun] = true
			case *ast.Ident:
				if b, ok := info.Uses[fun].(*types.Builtin); ok {
					switch b.Name() {
					case "append", "copy", "delete", "clear":
						if len(x.Args) > 0 {
							emit(writeSite{pos: x.Pos(), target: x.Args[0], kind: writeBuiltin, op: b.Name()})
						}
					}
					return true
				}
			}
			fn := calleeFunc(info, x)
			if fn == nil {
				return true
			}
			s := summaries[fn.FullName()]
			for bit := 0; s != nil && s.writesParam>>bit != 0; bit++ {
				if s.writesParam&(1<<bit) == 0 {
					continue
				}
				for _, arg := range callBitExprs(x, fn, bit) {
					emit(writeSite{pos: x.Pos(), target: arg, kind: writeCall, op: fn.Name()})
				}
			}
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; called[x] || sel == nil || sel.Kind() != types.MethodVal {
				return true
			}
			if fn, ok := info.Uses[x.Sel].(*types.Func); ok {
				if s := summaries[fn.FullName()]; s != nil && s.writesParam&1 != 0 {
					emit(writeSite{pos: x.Pos(), target: x.X, kind: writeMethodValue, op: fn.Name()})
				}
			}
		}
		return true
	})
}

// recordWrite classifies one write by the written value's origins: an
// offense when it derives from a marked type, a writes-parameter
// summary bit when it derives from a parameter.
func (fa *snapAnalysis) recordWrite(w writeSite) {
	o := fa.exprOrigins(w.target)
	if !o.immut {
		fa.sum.writesParam |= o.params
		return
	}
	if !fa.report {
		return
	}
	what := "write through"
	switch w.kind {
	case writeBuiltin:
		what = w.op + " on"
	case writeCall:
		what = "call to " + w.op + " mutates"
	case writeMethodValue:
		what = "method value " + w.op + " may write through"
	}
	fa.diags = append(fa.diags, fa.u.Diag(w.pos,
		"%s a value derived from %s type %s; published instances are read by lock-free pinned readers",
		what, ImmutableDirective, o.immutType))
}

// scanReturns folds return-value origins into the summary. Returns
// inside function literals belong to the literal, not this function.
func (fa *snapAnalysis) scanReturns() {
	fold := func(o origin) {
		fa.sum.returnsParam |= o.params
		if o.immut && !fa.sum.returnsImmut {
			fa.sum.returnsImmut = true
			fa.sum.immutType = o.immutType
		}
	}
	inspectNoFuncLit(fa.decl.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) == 0 {
			// Bare return with named results: fold their tracked state.
			if res := fa.decl.Type.Results; res != nil {
				for _, field := range res.List {
					for _, name := range field.Names {
						if v, ok := fa.u.Info.Defs[name].(*types.Var); ok {
							fold(fa.state[v])
						}
					}
				}
			}
			return true
		}
		for _, e := range ret.Results {
			fold(fa.exprOrigins(e))
		}
		return true
	})
}

// exprOrigins computes what an expression's value may derive from.
// Values of reference-free types (ints, strings, structs and arrays of
// such) are copied, never aliased: they derive from nothing, however
// they were computed — this is what keeps a fresh slice of value ids
// drilled out of a marked structure from counting as the structure.
func (fa *snapAnalysis) exprOrigins(e ast.Expr) origin {
	if tv, ok := fa.u.Info.Types[e]; ok && tv.Type != nil && refFree(tv.Type) {
		return origin{}
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		v := fa.varOf(x)
		if v == nil {
			return origin{}
		}
		if o, tracked := fa.state[v]; tracked {
			return o
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			// Package-level variable: only its type can tell us anything.
			return fa.typeOrigin(v.Type())
		}
		return origin{}
	case *ast.SelectorExpr:
		sel := fa.u.Info.Selections[x]
		if sel == nil {
			// Qualified identifier (pkg.V).
			if v, ok := fa.u.Info.Uses[x.Sel].(*types.Var); ok {
				return fa.typeOrigin(v.Type())
			}
			return origin{}
		}
		if sel.Kind() != types.FieldVal {
			return origin{}
		}
		if owner := namedOwner(sel.Recv()); owner != "" {
			if _, isShared := fa.shared[owner+"."+sel.Obj().Name()]; isShared {
				return origin{} // derivation stops at a reviewed shared field
			}
		}
		return fa.exprOrigins(x.X).or(fa.typeOrigin(sel.Type()))
	case *ast.IndexExpr:
		return fa.exprOrigins(x.X).or(fa.exprTypeOrigin(e))
	case *ast.SliceExpr:
		return fa.exprOrigins(x.X)
	case *ast.StarExpr:
		return fa.exprOrigins(x.X).or(fa.exprTypeOrigin(e))
	case *ast.UnaryExpr:
		switch x.Op {
		case token.AND:
			return fa.exprOrigins(x.X)
		case token.ARROW:
			return fa.exprTypeOrigin(e)
		}
		return origin{}
	case *ast.TypeAssertExpr:
		return fa.exprOrigins(x.X).or(fa.exprTypeOrigin(e))
	case *ast.CallExpr:
		return fa.callOrigins(x)
	case *ast.CompositeLit:
		return origin{} // fresh allocation: nothing published yet
	}
	return origin{}
}

// callOrigins computes a call result's origins from the callee summary
// (which arguments the results may alias), the special append builtin
// (its result aliases every argument), conversions (which preserve
// aliasing), and the result type itself.
func (fa *snapAnalysis) callOrigins(call *ast.CallExpr) origin {
	var o origin
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := fa.u.Info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" {
				for _, a := range call.Args {
					o = o.or(fa.exprOrigins(a))
				}
			}
			return o
		}
	}
	if tv, ok := fa.u.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		// Conversion: pointer/slice conversions preserve aliasing.
		return fa.exprOrigins(call.Args[0]).or(fa.exprTypeOrigin(call))
	}
	if fn := calleeFunc(fa.u.Info, call); fn != nil {
		if s := fa.summaries[fn.FullName()]; s != nil {
			for bit := 0; bit < 64 && s.returnsParam>>bit != 0; bit++ {
				if s.returnsParam&(1<<bit) == 0 {
					continue
				}
				for _, arg := range callBitExprs(call, fn, bit) {
					o = o.or(fa.exprOrigins(arg))
				}
			}
			if s.returnsImmut {
				o = o.or(origin{immut: true, immutType: s.immutType})
			}
		}
	}
	return o.or(fa.exprTypeOrigin(call))
}

// exprTypeOrigin is typeOrigin over an expression's static type.
func (fa *snapAnalysis) exprTypeOrigin(e ast.Expr) origin {
	if tv, ok := fa.u.Info.Types[e]; ok && tv.Type != nil {
		return fa.typeOrigin(tv.Type)
	}
	return origin{}
}

// typeOrigin reports marked-type derivation from a static type: a
// value typed as (a pointer to) a //dimred:immutable type aliases
// published state wherever it came from. Tuples derive when any
// element does.
func (fa *snapAnalysis) typeOrigin(t types.Type) origin {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if o := fa.typeOrigin(tup.At(i).Type()); o.immut {
				return o
			}
		}
		return origin{}
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return origin{}
	}
	if fa.immutable[named.Obj().Pkg().Path()+"."+named.Obj().Name()] {
		return origin{immut: true, immutType: named.Obj().Name()}
	}
	return origin{}
}

func (fa *snapAnalysis) varOf(id *ast.Ident) *types.Var {
	if v, ok := fa.u.Info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := fa.u.Info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// callBitExprs maps a summary parameter bit back to the expressions
// supplied for it at a call site: the receiver expression for bit 0 of
// a method, the matching argument otherwise, and every trailing
// argument for a variadic final parameter.
func callBitExprs(call *ast.CallExpr, fn *types.Func, bit int) []ast.Expr {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	off := 0
	if sig.Recv() != nil {
		if bit == 0 {
			if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
				return []ast.Expr{sel.X}
			}
			return nil
		}
		off = 1
	}
	i := bit - off
	np := sig.Params().Len()
	if i < 0 || i >= np {
		return nil
	}
	if sig.Variadic() && i == np-1 {
		if i < len(call.Args) {
			return call.Args[i:]
		}
		return nil
	}
	if i < len(call.Args) {
		return []ast.Expr{call.Args[i]}
	}
	return nil
}

// namedOwner renders a (possibly pointer-to) named type as pkg.Type, the
// prefix of the field keys //dimred:shared is recorded under.
func namedOwner(t types.Type) string {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// inspectNoFuncLit walks n like ast.Inspect but does not descend into
// function literals: a return inside a closure belongs to the closure.
func inspectNoFuncLit(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}
