package lint

import (
	"go/ast"
	"go/types"
)

// NewPublishCheck builds the publishcheck analyzer: immutability from
// the moment of publication. Storing a value into an atomic.Pointer is
// the left-right commit's publish step — from that instant, lock-free
// readers may hold the value, and the publisher has given up its right
// to mutate it. publishcheck enforces the handoff: in any function that
// publishes through atomic.Pointer Store/Swap/CompareAndSwap — itself
// or via a module callee, closed transitively over the call graph — no
// path after the publish may write into published state, not directly,
// not via a mutating builtin, and not by calling a module function
// whose escape summary writes the argument — unless the writer is
// annotated //dimred:replay with a reason (the sanctioned
// replay-into-standby path of the left-right protocol).
//
// "Published state" at a write site is decided by the origin analysis
// snapalias uses, with two sources of the published mark. Any value
// derived from a type that is published anywhere in the module (the
// atomic.Pointer element types) carries it — this catches the retired
// snapshot a commit path keeps writing after the swap, the exact
// pattern the replay annotation exists for. And the variable each
// publish argument of the declaration is rooted at is seeded with it
// before propagation, so every binding that aliases the value handed to
// the publish call carries it too — this catches the freshly built
// value a publisher must stop touching the moment it stores it.
// Derivation stops at //dimred:shared fields, whose objects are
// reviewed as safe to mutate while shared, and values of reference-free
// types carry no origin, so the published address of a local struct of
// scalars is not followed.
//
// Flow sensitivity comes from the CFG: a may-published fact is solved
// forward (OR at merges), a publish takes effect strictly after its own
// statement, and deferred calls are interpreted in the spliced defers
// block, where every completed publish is visible. Function literals
// have their own CFGs and are checked only when they publish (directly
// or through callees) themselves; a closure that captures published
// state and writes it later is snapalias's problem when the type is
// also //dimred:immutable.
func NewPublishCheck() *Analyzer {
	a := &Analyzer{
		Name: "publishcheck",
		Doc: "after a value is stored into an atomic.Pointer, no path may write into it except " +
			"functions annotated " + ReplayDirective + "; readers hold published values lock-free",
	}
	a.RunModule = func(m *Module) []Diagnostic {
		cg := m.graph

		// Which types get published, and which functions publish
		// directly.
		publishedTypes := map[string]bool{}
		direct := map[string]bool{}
		for _, key := range cg.keys {
			node := cg.Nodes[key]
			ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if _, _, tk, ok := atomicPublish(node.Unit.Info, call); ok {
						publishedTypes[tk] = true
						direct[key] = true
					}
				}
				return true
			})
		}
		if len(publishedTypes) == 0 {
			return nil
		}
		mayPublish := map[string]bool{}
		for _, scc := range cg.SCCs() {
			for changed := true; changed; {
				changed = false
				for _, key := range scc {
					if mayPublish[key] {
						continue
					}
					p := direct[key]
					for _, callee := range cg.Nodes[key].Calls {
						p = p || mayPublish[callee]
					}
					if p {
						mayPublish[key] = true
						changed = true
					}
				}
			}
		}

		var ds []Diagnostic
		for _, key := range cg.keys {
			if !mayPublish[key] {
				continue
			}
			if m.dirs.replay[key] != "" {
				continue // reasoned replay path: exempt end to end
			}
			c := &publishCheck{node: cg.Nodes[key], m: m, mayPublish: mayPublish}
			// The summaries are over the empty marked set: a marked set
			// would divert marked writes away from writesParam.
			c.fa = newSnapAnalysis(c.node, publishedTypes, m.dirs.shared, m.writeSums)
			ds = append(ds, c.check()...)
		}
		return ds
	}
	return a
}

type publishCheck struct {
	node       *CGNode
	m          *Module
	mayPublish map[string]bool

	fa    *snapAnalysis
	diags []Diagnostic
}

func (c *publishCheck) check() []Diagnostic {
	decl := c.node.Decl

	// Origins: parameters and published types as snapalias seeds them,
	// plus the root variable of each value this declaration publishes.
	c.fa.seedParams()
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if val, tn, _, ok := atomicPublish(c.node.Unit.Info, call); ok {
				c.fa.seedRoot(val, origin{immut: true, immutType: tn})
			}
		}
		return true
	})
	for c.fa.propagate() {
	}

	// Each body (the declaration's and every literal's) is its own CFG;
	// check the ones that can complete a publish.
	c.checkBody(decl.Body)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			c.checkBody(lit.Body)
		}
		return true
	})
	return c.diags
}

// nodePublishes reports whether executing one CFG node can complete a
// publish: an atomic.Pointer store, or a call to a module function
// that may publish transitively.
func (c *publishCheck) nodePublishes(n ast.Node) bool {
	info := c.node.Unit.Info
	found := false
	inspectNoFuncLit(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if _, _, _, ok := atomicPublish(info, call); ok {
			found = true
		} else if fn := calleeFunc(info, call); fn != nil && c.mayPublish[fn.FullName()] {
			found = true
		}
		return !found
	})
	return found
}

// checkBody solves the may-published fact over one body's CFG and
// reports every post-publish write into published state. The publish
// becomes effective strictly after its statement; deferred calls are
// interpreted in the defers block, where every completed publish on
// the path is visible.
func (c *publishCheck) checkBody(body *ast.BlockStmt) {
	g := BuildCFG(body)
	in := Solve(g, Problem[bool]{
		Dir:   Forward,
		Merge: func(x, y bool) bool { return x || y },
		Equal: func(x, y bool) bool { return x == y },
		Transfer: func(b *Block, f bool) bool {
			for _, n := range b.Nodes {
				if _, isDefer := n.(*ast.DeferStmt); isDefer && b.Kind != "defers" {
					continue
				}
				if c.nodePublishes(n) {
					f = true
				}
			}
			return f
		},
	})
	for _, b := range g.Blocks {
		f, reachable := in[b]
		if !reachable {
			continue
		}
		for _, n := range b.Nodes {
			if ds, isDefer := n.(*ast.DeferStmt); isDefer {
				if b.Kind == "defers" && f {
					c.scanWrites(ds.Call)
				}
				continue // inline defers run at exit, in the defers block
			}
			if f {
				c.scanWrites(n)
			}
			if c.nodePublishes(n) {
				f = true
			}
		}
	}
}

// scanWrites reports the writes into published state within one CFG
// node. A call into the annotated replay path is sanctioned.
func (c *publishCheck) scanWrites(n ast.Node) {
	forEachWrite(c.node.Unit.Info, n, c.m.writeSums, inspectNoFuncLit, func(w writeSite) {
		o := c.fa.exprOrigins(w.target)
		if !o.immut || (w.callee != nil && c.m.dirs.replay[w.callee.FullName()] != "") {
			return
		}
		if w.kind == writeCall {
			c.diags = append(c.diags, c.node.Unit.Diag(w.pos,
				"call to %s mutates a %s value after its atomic.Pointer publish; "+
					"annotate the callee '%s <reason>' if it is the sanctioned replay path",
				w.op, o.immutType, ReplayDirective))
			return
		}
		c.diags = append(c.diags, c.node.Unit.Diag(w.pos,
			"write into a %s value after its atomic.Pointer publish; lock-free readers may "+
				"already hold it, and only %s functions may replay into published state",
			o.immutType, ReplayDirective))
	})
}

// atomicPublish classifies a call as an atomic.Pointer publish and
// returns the value expression being published, the element type's
// name (for messages) and its pkg.Type key (for the published-type
// set). Store and Swap publish their first argument, CompareAndSwap
// its second.
func atomicPublish(info *types.Info, call *ast.CallExpr) (val ast.Expr, typeName, typeKey string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", "", false
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil, "", "", false
	}
	var argIdx int
	switch fn.Name() {
	case "Store", "Swap":
		argIdx = 0
	case "CompareAndSwap":
		argIdx = 1
	default:
		return nil, "", "", false
	}
	tv, hasType := info.Types[sel.X]
	if !hasType || tv.Type == nil {
		return nil, "", "", false
	}
	t := tv.Type
	for {
		p, isPtr := t.(*types.Pointer)
		if !isPtr {
			break
		}
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil ||
		named.Obj().Pkg().Path() != "sync/atomic" || named.Obj().Name() != "Pointer" {
		return nil, "", "", false
	}
	targs := named.TypeArgs()
	if targs == nil || targs.Len() != 1 {
		return nil, "", "", false
	}
	elem := targs.At(0)
	for {
		p, isPtr := elem.(*types.Pointer)
		if !isPtr {
			break
		}
		elem = p.Elem()
	}
	en, isNamed := elem.(*types.Named)
	if !isNamed || en.Obj().Pkg() == nil {
		return nil, "", "", false
	}
	if argIdx >= len(call.Args) {
		return nil, "", "", false
	}
	return call.Args[argIdx], en.Obj().Name(),
		en.Obj().Pkg().Path() + "." + en.Obj().Name(), true
}
