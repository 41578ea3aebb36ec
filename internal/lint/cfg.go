package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// This file builds intraprocedural control-flow graphs over go/ast
// function bodies: the substrate of lockfield's lockset dataflow. It
// deliberately stays syntactic: blocks hold the original ast.Nodes in
// execution order, so the transfer function keeps full access to type
// information via the Unit.
//
// Modeling decisions:
//
//   - One synthetic Exit block terminates every path (returns, panics
//     are not modeled, falling off the end).
//   - defer statements appear in their block (their arguments are
//     evaluated there) and are additionally collected into CFG.Defers;
//     when any exist, a dedicated defers block is spliced in front of
//     Exit so every function-exit path runs them. Transfer functions
//     that care about call effects (locksets) skip the inline
//     *ast.DeferStmt and interpret the deferred calls in that block.
//   - Function literals are opaque: the builder does not descend into
//     *ast.FuncLit bodies (a nested closure has its own CFG), and
//     analyzers use inspectNoFuncLit to match.
//   - select/switch case expressions are evaluated in the head block;
//     each clause body gets its own block.
//   - Unlabeled break and continue are wired; blocks that become
//     unreachable (e.g. code after return) stay in Blocks with no
//     predecessors, and the solver simply never visits them.
//   - goto, labeled statements, labeled break/continue and fallthrough
//     are not modeled. The builder records the first one it meets in
//     CFG.Unsupported, and the graph is then not the function's control
//     flow: a client must refuse the function rather than analyse it.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	// Defers lists every defer statement in the function in source
	// order; when non-empty, the last block before Exit is the defers
	// block holding exactly these nodes.
	Defers []*ast.DeferStmt
	// Unsupported is the first goto, labeled statement, labeled
	// break/continue or fallthrough in the body, or nil.
	Unsupported ast.Stmt
}

// Block is one basic block: a maximal straight-line sequence of nodes.
// Nodes holds statements and, for control-flow heads, the governing
// expression (an if/for condition, a switch tag, a range statement).
type Block struct {
	Index int
	Kind  string // "entry", "exit", "if.then", "for.head", ... for debugging
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

func (b *Block) String() string { return fmt.Sprintf("b%d(%s)", b.Index, b.Kind) }

// BuildCFG constructs the control-flow graph of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{g: &CFG{}}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = &Block{Kind: "exit"} // indexed after building
	b.cur = b.g.Entry
	b.stmt(body)
	b.jump(b.g.Exit) // fall off the end
	if len(b.g.Defers) > 0 {
		b.spliceDefers()
	}
	b.g.Exit.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, b.g.Exit)
	return b.g
}

type cfgBuilder struct {
	g          *CFG
	cur        *Block
	breakTo    *Block
	continueTo *Block
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func addEdge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump ends the current block with an edge to target and leaves the
// builder in a fresh, unreachable block.
func (b *cfgBuilder) jump(target *Block) {
	addEdge(b.cur, target)
	b.cur = b.newBlock("unreachable")
}

func (b *cfgBuilder) add(n ast.Node) { b.cur.Nodes = append(b.cur.Nodes, n) }

// unsupported records the first statement the graph does not model.
func (b *cfgBuilder) unsupported(s ast.Stmt) {
	if b.g.Unsupported == nil {
		b.g.Unsupported = s
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		done := b.newBlock("if.done")
		then := b.newBlock("if.then")
		addEdge(cond, then)
		b.cur = then
		b.stmt(s.Body)
		addEdge(b.cur, done)
		if s.Else != nil {
			els := b.newBlock("if.else")
			addEdge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			addEdge(b.cur, done)
		} else {
			addEdge(cond, done)
		}
		b.cur = done

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		addEdge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		addEdge(head, body)
		if s.Cond != nil {
			addEdge(head, done)
		}
		var post *Block
		contTo := head
		if s.Post != nil {
			post = b.newBlock("for.post")
			contTo = post
		}
		savedB, savedC := b.breakTo, b.continueTo
		b.breakTo, b.continueTo = done, contTo
		b.cur = body
		b.stmt(s.Body)
		addEdge(b.cur, contTo)
		b.breakTo, b.continueTo = savedB, savedC
		if post != nil {
			b.cur = post
			b.stmt(s.Post)
			addEdge(b.cur, head)
		}
		b.cur = done

	case *ast.RangeStmt:
		head := b.newBlock("range.head")
		addEdge(b.cur, head)
		head.Nodes = append(head.Nodes, s) // the range clause itself
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		addEdge(head, body)
		addEdge(head, done)
		savedB, savedC := b.breakTo, b.continueTo
		b.breakTo, b.continueTo = done, head
		b.cur = body
		b.stmt(s.Body)
		addEdge(b.cur, head)
		b.breakTo, b.continueTo = savedB, savedC
		b.cur = done

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(s.Body.List, func(cc *ast.CaseClause, head *Block) {
			for _, e := range cc.List {
				head.Nodes = append(head.Nodes, e)
			}
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(s.Body.List, nil)

	case *ast.SelectStmt:
		head := b.cur
		done := b.newBlock("select.done")
		savedB := b.breakTo
		b.breakTo = done
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock("select.body")
			addEdge(head, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			for _, st := range cc.Body {
				b.stmt(st)
			}
			addEdge(b.cur, done)
		}
		b.breakTo = savedB
		b.cur = done

	case *ast.LabeledStmt:
		b.unsupported(s)
		b.stmt(s.Stmt)

	case *ast.BranchStmt:
		var target *Block
		switch {
		case s.Label != nil || s.Tok == token.GOTO || s.Tok == token.FALLTHROUGH:
			b.unsupported(s)
		case s.Tok == token.BREAK:
			target = b.breakTo
		case s.Tok == token.CONTINUE:
			target = b.continueTo
		}
		if target != nil {
			b.jump(target)
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		b.add(s)

	case nil:
		// nothing

	default:
		// ExprStmt, AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt,
		// EmptyStmt: straight-line.
		b.add(s)
	}
}

// switchClauses builds the shared clause structure of switch and type
// switch statements. headExprs, when non-nil, appends a clause's case
// expressions to the evaluation block.
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, headExprs func(*ast.CaseClause, *Block)) {
	head := b.cur
	done := b.newBlock("switch.done")
	hasDefault := false
	for _, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		if headExprs != nil {
			headExprs(cc, head)
		}
	}
	if !hasDefault {
		addEdge(head, done)
	}
	savedB := b.breakTo
	b.breakTo = done
	for _, c := range clauses {
		b.cur = b.newBlock("case.body")
		addEdge(head, b.cur)
		for _, st := range c.(*ast.CaseClause).Body {
			b.stmt(st)
		}
		addEdge(b.cur, done)
	}
	b.breakTo = savedB
	b.cur = done
}

// spliceDefers inserts a block holding every defer statement between
// all Exit predecessors and Exit, so exit-path analyses (locksets) see
// the deferred calls run.
func (b *cfgBuilder) spliceDefers() {
	db := b.newBlock("defers")
	for _, n := range b.g.Defers {
		db.Nodes = append(db.Nodes, n)
	}
	preds := b.g.Exit.Preds
	b.g.Exit.Preds = nil
	for _, p := range preds {
		for i, s := range p.Succs {
			if s == b.g.Exit {
				p.Succs[i] = db
			}
		}
		db.Preds = append(db.Preds, p)
	}
	addEdge(db, b.g.Exit)
}

// dump renders the graph shape for tests: one "kind -> succkinds" line
// per block that is reachable or non-empty.
func (g *CFG) dump() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		if len(blk.Nodes) == 0 && len(blk.Preds) == 0 && len(blk.Succs) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%s:", blk.Kind)
		for _, s := range blk.Succs {
			fmt.Fprintf(&sb, " %s", s.Kind)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// shallowParts returns the parts of a CFG node that execute at that
// node. Almost every node is its own part; a RangeStmt is special
// because the builder stores the whole statement in the head block
// while its body statements live in the body block — only the ranged
// operand executes at the head.
func shallowParts(n ast.Node) []ast.Node {
	if r, ok := n.(*ast.RangeStmt); ok {
		if r.X != nil {
			return []ast.Node{r.X}
		}
		return nil
	}
	return []ast.Node{n}
}

// inspectNoFuncLit walks n like ast.Inspect but does not descend into
// function literals: a closure body has its own control flow and must
// not leak effects into the enclosing function's analysis.
func inspectNoFuncLit(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}
