package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildFromSrc parses src (a full file), builds the CFG of the first
// function declaration and returns it.
func buildFromSrc(t *testing.T, src string) *CFG {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return BuildCFG(fd.Body)
		}
	}
	t.Fatal("no function in source")
	return nil
}

// blocksByKind indexes the graph's blocks by kind.
func blocksByKind(g *CFG, kind string) []*Block {
	var out []*Block
	for _, b := range g.Blocks {
		if b.Kind == kind {
			out = append(out, b)
		}
	}
	return out
}

func oneBlock(t *testing.T, g *CFG, kind string) *Block {
	t.Helper()
	bs := blocksByKind(g, kind)
	if len(bs) != 1 {
		t.Fatalf("want exactly one %q block, got %d\n%s", kind, len(bs), g.dump())
	}
	return bs[0]
}

func hasEdge(from, to *Block) bool {
	for _, s := range from.Succs {
		if s == to {
			return true
		}
	}
	return false
}

// reachable computes the blocks reachable from the entry.
func reachable(g *CFG) map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	return seen
}

func TestCFGIfElse(t *testing.T) {
	g := buildFromSrc(t, `package p
func f(c bool) int {
	x := 0
	if c {
		x = 1
	} else {
		x = 2
	}
	return x
}`)
	entry := g.Entry
	then := oneBlock(t, g, "if.then")
	els := oneBlock(t, g, "if.else")
	done := oneBlock(t, g, "if.done")
	if !hasEdge(entry, then) || !hasEdge(entry, els) {
		t.Fatalf("cond block must branch to then and else\n%s", g.dump())
	}
	if !hasEdge(then, done) || !hasEdge(els, done) {
		t.Fatalf("both branches must rejoin at if.done\n%s", g.dump())
	}
	if !reachable(g)[g.Exit] {
		t.Fatalf("exit unreachable\n%s", g.dump())
	}
}

func TestCFGIfWithoutElse(t *testing.T) {
	g := buildFromSrc(t, `package p
func f(c bool) {
	if c {
		_ = 1
	}
}`)
	done := oneBlock(t, g, "if.done")
	if !hasEdge(g.Entry, done) {
		t.Fatalf("if without else needs a direct cond->done edge\n%s", g.dump())
	}
}

func TestCFGForLoop(t *testing.T) {
	g := buildFromSrc(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if i == 3 {
			continue
		}
		if i == 7 {
			break
		}
		s += i
	}
	return s
}`)
	head := oneBlock(t, g, "for.head")
	body := oneBlock(t, g, "for.body")
	post := oneBlock(t, g, "for.post")
	done := oneBlock(t, g, "for.done")
	if !hasEdge(head, body) || !hasEdge(head, done) {
		t.Fatalf("loop head must branch to body and done\n%s", g.dump())
	}
	if !hasEdge(post, head) {
		t.Fatalf("post must loop back to head\n%s", g.dump())
	}
	// continue jumps to post, break to done.
	foundCont, foundBreak := false, false
	for _, b := range g.Blocks {
		if b.Kind == "if.then" {
			if hasEdge(b, post) {
				foundCont = true
			}
			if hasEdge(b, done) {
				foundBreak = true
			}
		}
	}
	if !foundCont || !foundBreak {
		t.Fatalf("continue->post (%v) and break->done (%v) edges missing\n%s", foundCont, foundBreak, g.dump())
	}
}

func TestCFGRange(t *testing.T) {
	g := buildFromSrc(t, `package p
func f(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}`)
	head := oneBlock(t, g, "range.head")
	body := oneBlock(t, g, "range.body")
	done := oneBlock(t, g, "range.done")
	if !hasEdge(head, body) || !hasEdge(head, done) || !hasEdge(body, head) {
		t.Fatalf("range edges wrong\n%s", g.dump())
	}
	if len(head.Nodes) != 1 {
		t.Fatalf("range head must hold the range clause, got %d nodes", len(head.Nodes))
	}
	if _, ok := head.Nodes[0].(*ast.RangeStmt); !ok {
		t.Fatalf("range head node is %T, want *ast.RangeStmt", head.Nodes[0])
	}
}

func TestCFGSwitchNoDefault(t *testing.T) {
	g := buildFromSrc(t, `package p
func f(x int) {
	switch x {
	case 1:
		_ = 1
	}
}`)
	done := oneBlock(t, g, "switch.done")
	if !hasEdge(g.Entry, done) {
		t.Fatalf("switch without default needs head->done edge\n%s", g.dump())
	}

	// With a default clause every path runs a clause body.
	g = buildFromSrc(t, `package p
func f(x int) {
	switch x {
	case 1:
		_ = 1
	default:
		_ = 2
	}
}`)
	done = oneBlock(t, g, "switch.done")
	if hasEdge(g.Entry, done) {
		t.Fatalf("switch with default must not fall through the head\n%s", g.dump())
	}
	for _, body := range blocksByKind(g, "case.body") {
		if !hasEdge(g.Entry, body) || !hasEdge(body, done) {
			t.Fatalf("each case body must hang between head and done\n%s", g.dump())
		}
	}
}

// The CFG does not model goto, labels or fallthrough. The next three
// tests pin that the builder records the first such statement in
// Unsupported, so a client can refuse the function, and that it still
// returns a graph rather than failing.

func TestCFGSwitchFallthrough(t *testing.T) {
	g := buildFromSrc(t, `package p
func f(x int) int {
	r := 0
	switch x {
	case 1:
		r = 1
		fallthrough
	case 2:
		r += 2
	default:
		r = 9
	}
	return r
}`)
	br, ok := g.Unsupported.(*ast.BranchStmt)
	if !ok || br.Tok != token.FALLTHROUGH {
		t.Fatalf("Unsupported = %T, want the fallthrough statement\n%s", g.Unsupported, g.dump())
	}
	bodies := blocksByKind(g, "case.body")
	if len(bodies) != 3 {
		t.Fatalf("want 3 case bodies, got %d\n%s", len(bodies), g.dump())
	}
	if hasEdge(bodies[0], bodies[1]) {
		t.Fatalf("fallthrough is not modeled, yet the graph has a case1->case2 edge\n%s", g.dump())
	}
	if !reachable(g)[g.Exit] {
		t.Fatalf("exit unreachable\n%s", g.dump())
	}
}

func TestCFGGoto(t *testing.T) {
	// A backward goto: the label is the first unmodeled statement met.
	g := buildFromSrc(t, `package p
func f(n int) int {
	i := 0
loop:
	if i < n {
		i++
		goto loop
	}
	return i
}`)
	if ls, ok := g.Unsupported.(*ast.LabeledStmt); !ok || ls.Label.Name != "loop" {
		t.Fatalf("Unsupported = %T, want the labeled statement loop\n%s", g.Unsupported, g.dump())
	}
	if len(blocksByKind(g, "label.loop")) != 0 {
		t.Fatalf("labels are not modeled, yet the graph has a label block\n%s", g.dump())
	}

	// A forward goto is met before its label.
	g = buildFromSrc(t, `package p
func f(n int) int {
	if n < 0 {
		goto out
	}
	n++
out:
	return n
}`)
	if br, ok := g.Unsupported.(*ast.BranchStmt); !ok || br.Tok != token.GOTO {
		t.Fatalf("Unsupported = %T, want the goto statement\n%s", g.Unsupported, g.dump())
	}
	if !reachable(g)[g.Exit] {
		t.Fatalf("exit unreachable\n%s", g.dump())
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	g := buildFromSrc(t, `package p
func f(m [][]int) int {
	s := 0
	for _, row := range m {
		for _, x := range row {
			if x < 0 {
				break
			}
			s += x
		}
	}
	return s
}`)
	if g.Unsupported != nil {
		t.Fatalf("an unlabeled break is modeled, yet Unsupported = %T\n%s", g.Unsupported, g.dump())
	}

	g = buildFromSrc(t, `package p
func f(m [][]int) int {
	s := 0
outer:
	for _, row := range m {
		for _, x := range row {
			if x < 0 {
				break outer
			}
			s += x
		}
	}
	return s
}`)
	if ls, ok := g.Unsupported.(*ast.LabeledStmt); !ok || ls.Label.Name != "outer" {
		t.Fatalf("Unsupported = %T, want the labeled statement outer\n%s", g.Unsupported, g.dump())
	}
	if len(blocksByKind(g, "range.done")) != 2 {
		t.Fatalf("want 2 range.done blocks\n%s", g.dump())
	}
}

func TestCFGDefer(t *testing.T) {
	g := buildFromSrc(t, `package p
func f(c bool) int {
	defer cleanup()
	if c {
		return 1
	}
	return 2
}
func cleanup() {}`)
	if len(g.Defers) != 1 {
		t.Fatalf("want 1 collected defer, got %d", len(g.Defers))
	}
	db := oneBlock(t, g, "defers")
	if !hasEdge(db, g.Exit) {
		t.Fatalf("defers block must edge to exit\n%s", g.dump())
	}
	// Every exit predecessor is the defers block: both returns route
	// through it.
	if len(g.Exit.Preds) != 1 || g.Exit.Preds[0] != db {
		t.Fatalf("all paths must exit through the defers block\n%s", g.dump())
	}
	if len(db.Preds) < 2 {
		t.Fatalf("both return paths should reach the defers block, got %d preds", len(db.Preds))
	}
}

func TestCFGSelect(t *testing.T) {
	g := buildFromSrc(t, `package p
func f(a, b chan int) int {
	select {
	case x := <-a:
		return x
	case <-b:
	}
	return 0
}`)
	bodies := blocksByKind(g, "select.body")
	if len(bodies) != 2 {
		t.Fatalf("want 2 select bodies, got %d\n%s", len(bodies), g.dump())
	}
	if !reachable(g)[g.Exit] {
		t.Fatalf("exit unreachable\n%s", g.dump())
	}
}

func TestCFGTypeSwitch(t *testing.T) {
	g := buildFromSrc(t, `package p
func f(v any) int {
	switch v.(type) {
	case int:
		return 1
	case string:
		return 2
	}
	return 0
}`)
	bodies := blocksByKind(g, "case.body")
	if len(bodies) != 2 {
		t.Fatalf("want 2 case bodies, got %d\n%s", len(bodies), g.dump())
	}
	done := oneBlock(t, g, "switch.done")
	if !hasEdge(g.Entry, done) {
		t.Fatalf("type switch without default needs head->done edge\n%s", g.dump())
	}
}

func TestCFGDeadCodeAfterReturn(t *testing.T) {
	g := buildFromSrc(t, `package p
func f() int {
	return 1
	_ = 2
}`)
	r := reachable(g)
	if !r[g.Exit] {
		t.Fatal("exit unreachable")
	}
	// The statement after return sits in a block with no predecessors.
	for _, b := range g.Blocks {
		if b.Kind == "unreachable" && len(b.Nodes) > 0 && r[b] {
			t.Fatalf("dead code block must be unreachable\n%s", g.dump())
		}
	}
}

func TestCFGDumpStable(t *testing.T) {
	g := buildFromSrc(t, `package p
func f(c bool) {
	if c {
		_ = 1
	}
}`)
	d := g.dump()
	if !strings.Contains(d, "entry:") || !strings.Contains(d, "if.then") {
		t.Fatalf("dump missing expected blocks:\n%s", d)
	}
}
