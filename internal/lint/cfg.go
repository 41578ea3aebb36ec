package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// This file builds intraprocedural control-flow graphs over go/ast
// function bodies. The CFG is the substrate for the dataflow solver in
// dataflow.go and, through it, for the nowflow and lockfield
// analyzers. It deliberately stays syntactic: blocks hold the original
// ast.Nodes in execution order, so analyzer transfer functions keep
// full access to type information via the Unit.
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
//     each clause body gets its own block. fallthrough chains switch
//     clause bodies.
//   - goto/break/continue/labels are fully wired; blocks that become
//     unreachable (e.g. code after return) stay in Blocks with no
//     predecessors, and the solver simply never visits them.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	// Defers lists every defer statement in the function in source
	// order; when non-empty, the last block before Exit is the defers
	// block holding exactly these nodes.
	Defers []*ast.DeferStmt
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
	b := &cfgBuilder{g: &CFG{}, labels: map[string]*labelInfo{}}
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

// labelInfo tracks one label: the block a goto jumps to, and — while
// the labeled loop/switch is being built — the break/continue targets.
type labelInfo struct {
	target     *Block // the labeled statement's own block (goto target)
	breakTo    *Block
	continueTo *Block
}

type cfgBuilder struct {
	g          *CFG
	cur        *Block
	labels     map[string]*labelInfo
	breakTo    *Block
	continueTo *Block
	fallTo     *Block // fallthrough target inside a switch clause
	curLabel   string // pending label naming the next loop/switch
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
// builder in a fresh, unreachable block (which later statements may
// make reachable via labels).
func (b *cfgBuilder) jump(target *Block) {
	addEdge(b.cur, target)
	b.cur = b.newBlock("unreachable")
}

func (b *cfgBuilder) add(n ast.Node) { b.cur.Nodes = append(b.cur.Nodes, n) }

// registerLabel records the break/continue targets of a labeled
// loop/switch under its label.
func (b *cfgBuilder) registerLabel(label string, breakTo, continueTo *Block) {
	if label == "" {
		return
	}
	li := b.labels[label]
	li.breakTo = breakTo
	li.continueTo = continueTo
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.curLabel = ""
		for _, st := range s.List {
			b.stmt(st)
		}

	case *ast.IfStmt:
		b.curLabel = ""
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
		label := b.curLabel
		b.curLabel = ""
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
		b.registerLabel(label, done, contTo)
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
		label := b.curLabel
		b.curLabel = ""
		head := b.newBlock("range.head")
		addEdge(b.cur, head)
		head.Nodes = append(head.Nodes, s) // the range clause itself
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		addEdge(head, body)
		addEdge(head, done)
		b.registerLabel(label, done, head)
		savedB, savedC := b.breakTo, b.continueTo
		b.breakTo, b.continueTo = done, head
		b.cur = body
		b.stmt(s.Body)
		addEdge(b.cur, head)
		b.breakTo, b.continueTo = savedB, savedC
		b.cur = done

	case *ast.SwitchStmt:
		label := b.curLabel
		b.curLabel = ""
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(s.Body.List, label, func(cc *ast.CaseClause, head *Block) {
			for _, e := range cc.List {
				head.Nodes = append(head.Nodes, e)
			}
		})

	case *ast.TypeSwitchStmt:
		label := b.curLabel
		b.curLabel = ""
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(s.Body.List, label, nil)

	case *ast.SelectStmt:
		label := b.curLabel
		b.curLabel = ""
		head := b.cur
		done := b.newBlock("select.done")
		b.registerLabel(label, done, nil)
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
		li := b.labels[s.Label.Name]
		if li == nil {
			li = &labelInfo{}
			b.labels[s.Label.Name] = li
		}
		if li.target == nil {
			li.target = b.newBlock("label." + s.Label.Name)
		}
		addEdge(b.cur, li.target)
		b.cur = li.target
		b.curLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.curLabel = ""

	case *ast.BranchStmt:
		b.curLabel = ""
		switch s.Tok {
		case token.BREAK:
			target := b.breakTo
			if s.Label != nil {
				if li := b.labels[s.Label.Name]; li != nil && li.breakTo != nil {
					target = li.breakTo
				}
			}
			if target != nil {
				b.jump(target)
			}
		case token.CONTINUE:
			target := b.continueTo
			if s.Label != nil {
				if li := b.labels[s.Label.Name]; li != nil && li.continueTo != nil {
					target = li.continueTo
				}
			}
			if target != nil {
				b.jump(target)
			}
		case token.GOTO:
			li := b.labels[s.Label.Name]
			if li == nil {
				li = &labelInfo{}
				b.labels[s.Label.Name] = li
			}
			if li.target == nil {
				li.target = b.newBlock("label." + s.Label.Name)
			}
			b.jump(li.target)
		case token.FALLTHROUGH:
			if b.fallTo != nil {
				b.jump(b.fallTo)
			}
		}

	case *ast.ReturnStmt:
		b.curLabel = ""
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.DeferStmt:
		b.curLabel = ""
		b.g.Defers = append(b.g.Defers, s)
		b.add(s)

	case nil:
		// nothing

	default:
		// ExprStmt, AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt,
		// EmptyStmt: straight-line.
		b.curLabel = ""
		b.add(s)
	}
}

// switchClauses builds the shared clause structure of switch and type
// switch statements. headExprs, when non-nil, appends a clause's case
// expressions to the evaluation block.
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, label string, headExprs func(*ast.CaseClause, *Block)) {
	head := b.cur
	done := b.newBlock("switch.done")
	b.registerLabel(label, done, nil)
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		if headExprs != nil {
			headExprs(cc, head)
		}
		bodies[i] = b.newBlock("case.body")
		addEdge(head, bodies[i])
	}
	if !hasDefault {
		addEdge(head, done)
	}
	savedB, savedF := b.breakTo, b.fallTo
	b.breakTo = done
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.fallTo = nil
		if i+1 < len(bodies) {
			b.fallTo = bodies[i+1]
		}
		b.cur = bodies[i]
		for _, st := range cc.Body {
			b.stmt(st)
		}
		addEdge(b.cur, done)
	}
	b.breakTo, b.fallTo = savedB, savedF
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
