package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NewGoSpawn builds the gospawn analyzer: goroutine discipline for the
// streaming-ingest era. Every go statement must satisfy two contracts:
//
//  1. No unsafe state crosses the spawn boundary. A goroutine may
//     outlive the epoch pin that made a snapshot safe to read, so
//     neither its arguments nor its captures may carry a snapalias
//     immutable origin; and a field the module guards with a mutex
//     (lockfield's inferred guards) must be accessed under that guard
//     inside the body — locks held at the spawn site do not extend
//     into the asynchronous body.
//
//  2. The goroutine provably terminates or is reasoned about. The
//     spawner (or a sibling goroutine of the same declaration) must
//     exhibit a join or termination edge: a sync.WaitGroup Done/Wait
//     pair, a channel the body ranges/receives that the spawner
//     closes, a result send the spawner receives, or a done-channel
//     close the spawner receives. Otherwise the go statement needs a
//     reasoned //dimred:detached directive on its line or the line
//     above — background compaction must not silently leak goroutines.
//
// The join proof is syntactic (matching WaitGroup/channel identity
// chains, literal parameters translated to spawn-site arguments), not
// a reachability argument; spawning a named function is never provable
// and always needs the directive. The directive waives only the join
// requirement — capture and guard findings stand regardless.
func NewGoSpawn() *Analyzer {
	a := &Analyzer{
		Name: "gospawn",
		Doc: "every go statement needs a provable join/termination edge (WaitGroup pair, " +
			"channel close or result receive) or a reasoned " + DetachedDirective + "; goroutines " +
			"must not capture snapshot-derived references or guarded fields without their guard",
	}
	a.RunModule = func(m *Module) []Diagnostic {
		var ds []Diagnostic
		for _, key := range m.graph.keys {
			c := &goSpawnCheck{node: m.graph.Nodes[key], m: m}
			ds = append(ds, c.check()...)
		}
		return ds
	}
	return a
}

type goSpawnCheck struct {
	node *CGNode
	m    *Module

	fa    *snapAnalysis
	diags []Diagnostic
}

func (c *goSpawnCheck) check() []Diagnostic {
	decl := c.node.Decl
	var goStmts []*ast.GoStmt
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			goStmts = append(goStmts, g)
		}
		return true
	})
	if len(goStmts) == 0 {
		return nil
	}

	u := c.node.Unit
	file := fileOf(u, decl.Pos())
	if file == nil {
		return nil
	}
	parents := parentMap(file)
	c.fa = newSnapAnalysis(c.node, c.m.dirs.immutable, c.m.dirs.shared, c.m.immutSums)
	c.fa.seedParams()
	for c.fa.propagate() {
	}

	for _, g := range goStmts {
		lit, _ := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
		c.checkHandoff(g, lit)
		if lit != nil {
			c.checkGuards(lit, parents)
		}
		at, detached := u.Fset.Position(g.Pos()), c.m.dirs.detached
		if detached[lineKey{at.Filename, at.Line}] != "" || detached[lineKey{at.Filename, at.Line - 1}] != "" {
			continue
		}
		if lit == nil || !c.joined(decl, g, lit) {
			c.diags = append(c.diags, u.Diag(g.Pos(),
				"goroutine has no provable join or termination edge (sync.WaitGroup Done/Wait "+
					"pair, channel close, or result receive in the spawner); annotate the go "+
					"statement '%s <reason>' if detaching is intended", DetachedDirective))
		}
	}
	return c.diags
}

// checkHandoff flags snapshot-derived state crossing the spawn
// boundary: arguments and the bound receiver at the go call, and free
// variables the literal captures.
func (c *goSpawnCheck) checkHandoff(g *ast.GoStmt, lit *ast.FuncLit) {
	u := c.node.Unit
	handed := func(e ast.Expr) {
		if o := c.fa.exprOrigins(e); o.immut {
			c.diags = append(c.diags, u.Diag(g.Pos(),
				"goroutine is handed a value derived from %s type %s; the goroutine may outlive "+
					"the epoch pin that makes the snapshot safe to read", ImmutableDirective, o.immutType))
		}
	}
	for _, arg := range g.Call.Args {
		handed(arg)
	}
	if lit == nil {
		if sel, ok := ast.Unparen(g.Call.Fun).(*ast.SelectorExpr); ok {
			handed(sel.X)
		}
		return
	}
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := u.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // literal-local
		}
		if o := c.fa.exprOrigins(id); o.immut {
			seen[v] = true
			c.diags = append(c.diags, u.Diag(g.Pos(),
				"goroutine captures %s, derived from %s type %s; the goroutine may outlive "+
					"the epoch pin that makes the snapshot safe to read", v.Name(), ImmutableDirective, o.immutType))
		}
		return true
	})
}

// checkGuards runs the lockset dataflow over the literal body with an
// empty boundary — a goroutine starts holding nothing, whatever the
// spawn site held — and requires every access to a module-guarded
// field to hold its guard inside the body.
func (c *goSpawnCheck) checkGuards(lit *ast.FuncLit, parents map[ast.Node]ast.Node) {
	u := c.node.Unit
	la := &lockAnalysis{u: u, body: lit.Body, parents: parents, ownerMutexes: c.m.locks.ownerMutexes}
	la.run()
	for _, acc := range la.accesses {
		if gs := c.m.locks.guards[acc.key]; !acc.exempt && !acc.holdsOneOf(gs) {
			c.diags = append(c.diags, u.Diag(acc.pos,
				"%s of field %s inside a goroutine without holding %s, which guards it elsewhere "+
					"in the module; locks held at the spawn site do not extend into the asynchronous body",
				acc.verb(), acc.key, guardNames(gs, acc.owner)))
		}
	}
}

// joined reports whether the goroutine literal has a syntactic join or
// termination edge with its spawner: Done/Wait on one WaitGroup, a
// body receive matched by a spawner close, or a body send/close
// matched by a spawner receive. The spawner side is the enclosing
// declaration minus the literal itself, so a sibling closer goroutine
// counts.
func (c *goSpawnCheck) joined(decl *ast.FuncDecl, g *ast.GoStmt, lit *ast.FuncLit) bool {
	u := c.node.Unit
	params := litParams(u, lit)

	// translate maps a key rooted at a literal parameter to the
	// spawn-site argument supplied for it.
	translate := func(k string) string {
		if k == "" {
			return ""
		}
		for i, pv := range params {
			if pv == nil || i >= len(g.Call.Args) {
				continue
			}
			pk := varKey(pv)
			if k == pk || strings.HasPrefix(k, pk+".") {
				ak := chainKey(u.Info, g.Call.Args[i])
				if ak == "" {
					return ""
				}
				return ak + strings.TrimPrefix(k, pk)
			}
		}
		return k
	}

	done := map[string]bool{}
	bodyRecv := map[string]bool{}
	bodySend := map[string]bool{}
	bodyClose := map[string]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		c.joinEvent(n, func(kind string, e ast.Expr) {
			k := translate(chainKey(u.Info, e))
			if k == "" {
				return
			}
			switch kind {
			case "done":
				done[k] = true
			case "recv":
				bodyRecv[k] = true
			case "send":
				bodySend[k] = true
			case "close":
				bodyClose[k] = true
			}
		})
		return true
	})
	if len(done)+len(bodyRecv)+len(bodySend)+len(bodyClose) == 0 {
		return false
	}

	joined := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if n == ast.Node(lit) {
			return false // the goroutine cannot join itself
		}
		if joined {
			return false
		}
		c.joinEvent(n, func(kind string, e ast.Expr) {
			k := chainKey(u.Info, e)
			if k == "" {
				return
			}
			switch kind {
			case "wait":
				joined = joined || done[k]
			case "close":
				joined = joined || bodyRecv[k]
			case "recv":
				joined = joined || bodySend[k] || bodyClose[k]
			}
		})
		return true
	})
	return joined
}

// joinEvent classifies one node as a join-relevant event and reports
// it: WaitGroup Done/Wait, channel receive (unary or range), channel
// send, channel close.
func (c *goSpawnCheck) joinEvent(n ast.Node, emit func(kind string, e ast.Expr)) {
	info := c.node.Unit.Info
	switch x := n.(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "close" && len(x.Args) == 1 {
				emit("close", x.Args[0])
			}
			return
		}
		fn := calleeFunc(info, x)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return
		}
		sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		switch fn.Name() {
		case "Done":
			emit("done", sel.X)
		case "Wait":
			emit("wait", sel.X)
		}
	case *ast.UnaryExpr:
		if x.Op == token.ARROW && isChanExpr(info, x.X) {
			emit("recv", x.X)
		}
	case *ast.RangeStmt:
		if isChanExpr(info, x.X) {
			emit("recv", x.X)
		}
	case *ast.SendStmt:
		emit("send", x.Chan)
	}
}

// isChanExpr reports whether e's static type is a channel.
func isChanExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// chainKey renders an expression naming a WaitGroup or channel as a
// stable key rooted at variable identity ("" when untracked).
func chainKey(info *types.Info, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return varKey(v)
		}
		if v, ok := info.Defs[x].(*types.Var); ok {
			return varKey(v)
		}
	case *ast.SelectorExpr:
		if base := chainKey(info, x.X); base != "" {
			return base + "." + x.Sel.Name
		}
	case *ast.StarExpr:
		return chainKey(info, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return chainKey(info, x.X)
		}
	case *ast.IndexExpr:
		if base := chainKey(info, x.X); base != "" {
			return base + "[]" // elements share one key
		}
	}
	return ""
}

func varKey(v *types.Var) string { return fmt.Sprintf("v@%d", v.Pos()) }

// litParams lists the literal's parameter variables in positional
// order (nil for unnamed positions).
func litParams(u *Unit, lit *ast.FuncLit) []*types.Var {
	if lit.Type.Params == nil {
		return nil
	}
	var out []*types.Var
	for _, f := range lit.Type.Params.List {
		if len(f.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range f.Names {
			v, _ := u.Info.Defs[name].(*types.Var)
			out = append(out, v)
		}
	}
	return out
}

// fileOf finds the unit file containing pos.
func fileOf(u *Unit, pos token.Pos) *ast.File {
	for _, f := range u.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}
