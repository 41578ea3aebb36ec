package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// typecheckFunc parses and type-checks src and returns the first
// function declaration with its type info.
func typecheckFunc(t *testing.T, src string) (*ast.FuncDecl, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "df_test.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return fd, info
		}
	}
	t.Fatal("no function in source")
	return nil, nil
}

// findVar looks up a function-local variable by name via the Defs map.
func findVar(t *testing.T, info *types.Info, name string) *types.Var {
	t.Helper()
	for id, obj := range info.Defs {
		if id.Name == name {
			if v, ok := obj.(*types.Var); ok {
				return v
			}
		}
	}
	t.Fatalf("variable %q not found", name)
	return nil
}

// returnBlock finds the block and node of the first return statement.
func returnBlock(t *testing.T, g *CFG) (*Block, ast.Node) {
	t.Helper()
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				return b, n
			}
		}
	}
	t.Fatal("no return statement in CFG")
	return nil, nil
}

func TestReachingDefsKill(t *testing.T) {
	fd, info := typecheckFunc(t, `package p
func f() int {
	x := 1
	x = 2
	return x
}`)
	g := BuildCFG(fd.Body)
	rd := NewReachingDefs(info, fd, g)
	b, ret := returnBlock(t, g)
	defs := rd.DefsAt(info, b, ret, findVar(t, info, "x"))
	if len(defs) != 1 {
		t.Fatalf("want exactly 1 reaching def after kill, got %d", len(defs))
	}
	lit, ok := ast.Unparen(defs[0].Rhs).(*ast.BasicLit)
	if !ok || lit.Value != "2" {
		t.Fatalf("reaching def should be x = 2, got %v", defs[0].Rhs)
	}
}

func TestReachingDefsBranchMerge(t *testing.T) {
	fd, info := typecheckFunc(t, `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}`)
	g := BuildCFG(fd.Body)
	rd := NewReachingDefs(info, fd, g)
	b, ret := returnBlock(t, g)
	defs := rd.DefsAt(info, b, ret, findVar(t, info, "x"))
	if len(defs) != 2 {
		t.Fatalf("both branch definitions must reach the merge, got %d", len(defs))
	}
}

func TestReachingDefsLoop(t *testing.T) {
	fd, info := typecheckFunc(t, `package p
func f(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x = i
	}
	return x
}`)
	g := BuildCFG(fd.Body)
	rd := NewReachingDefs(info, fd, g)
	b, ret := returnBlock(t, g)
	defs := rd.DefsAt(info, b, ret, findVar(t, info, "x"))
	if len(defs) != 2 {
		t.Fatalf("init and loop-body definitions must both reach the exit, got %d", len(defs))
	}
}

func TestReachingDefsParams(t *testing.T) {
	fd, info := typecheckFunc(t, `package p
func f(a int) int {
	return a
}`)
	g := BuildCFG(fd.Body)
	rd := NewReachingDefs(info, fd, g)
	b, ret := returnBlock(t, g)
	defs := rd.DefsAt(info, b, ret, findVar(t, info, "a"))
	if len(defs) != 1 {
		t.Fatalf("parameter definition must reach, got %d", len(defs))
	}
	if defs[0].Node != nil || defs[0].Rhs != nil {
		t.Fatalf("parameter defs carry no node/rhs, got %+v", defs[0])
	}
}

func TestReachingDefsUntrackedVar(t *testing.T) {
	fd, info := typecheckFunc(t, `package p
var g int
func f() int {
	return g
}`)
	cfg := BuildCFG(fd.Body)
	rd := NewReachingDefs(info, fd, cfg)
	b, ret := returnBlock(t, cfg)
	var gv *types.Var
	for id, obj := range info.Uses {
		if id.Name == "g" {
			gv, _ = obj.(*types.Var)
		}
	}
	if gv == nil {
		t.Fatal("package var g not found")
	}
	if defs := rd.DefsAt(info, b, ret, gv); defs != nil {
		t.Fatalf("package-level vars are untracked; want nil, got %v", defs)
	}
}
