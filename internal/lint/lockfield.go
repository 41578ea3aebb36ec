package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// NewLockField builds the lockfield analyzer: mutex-discipline
// checking for the engine's shared state.
//
// The analysis runs a forward lockset dataflow (which mutex fields
// are held, and at what strength, at each program point) over the CFG
// of every function in the module, then infers guards: a field
// written while a write lock on a mutex of the *same* struct is held
// is considered guarded by that mutex. Every other access to a
// guarded field must then hold the guard — at write strength for
// writes, at least read strength (RLock) for reads.
//
// Conventions and exemptions:
//
//   - methods whose name ends in "Locked" are callee-side annotated:
//     their bodies assume every mutex field of the receiver is held
//     (the caller's obligation), and every *call* to such a method
//     must hold those mutexes at least at read strength;
//   - accesses through a local variable every definition of which in
//     this function is a fresh allocation (x := T{...}, x := &T{...},
//     x := new(T), var x T) are exempt: nothing else can see the
//     object yet, so constructors stay lock-free;
//   - deferred Unlock/RUnlock calls take effect on the function's
//     exit paths (the CFG's defers block), so a Lock at the top plus
//     a deferred Unlock holds for the whole body;
//   - function literals are opaque (a goroutine body has its own
//     control flow); locks taken or released inside one are not seen;
//   - a function using goto, a label or fallthrough is reported as
//     uncheckable: the CFG does not model those statements, and a
//     lockset over a wrong graph would prove nothing.
//
// Writes to //dimred:immutable types are snapalias's to judge, not
// this analyzer's: no lock excuses them.
func NewLockField() *Analyzer {
	a := &Analyzer{
		Name: "lockfield",
		Doc: "a struct field written under a sync.Mutex/RWMutex Lock must be accessed " +
			"under that lock everywhere (reads may hold RLock)",
	}
	a.RunModule = func(m *Module) []Diagnostic {
		lf := collectLockFacts(m)

		// Every non-exempt access to a guarded field must hold one of
		// its guards at the required strength.
		ds := lf.refused
		for _, a := range lf.accesses {
			if gs := lf.guards[a.key]; !a.exempt && !a.holdsOneOf(gs) {
				ds = append(ds, a.unit.Diag(a.pos,
					"%s of field %s without holding %s, which guards it elsewhere in the module",
					a.verb(), a.key, guardNames(gs, a.owner)))
			}
		}
		for _, c := range lf.lockedCalls {
			var missing []string
			for _, lock := range lf.ownerMutexes[c.owner] {
				if c.locks[lock] < lockRead {
					missing = append(missing, lock)
				}
			}
			if len(missing) > 0 {
				sort.Strings(missing)
				ds = append(ds, c.unit.Diag(c.pos,
					"call to %s (the Locked suffix asserts the caller holds the receiver's locks) without holding %s",
					c.name, shortLockList(missing, c.owner)))
			}
		}
		return ds
	}
	return a
}

const (
	lockRead  = 1
	lockWrite = 2
)

// lockSet maps mutex field keys to the strength held.
type lockSet map[string]int

func (s lockSet) clone() lockSet {
	c := make(lockSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// lockMeet intersects two locksets at the weaker strength: a lock is
// held after a merge only if held on every incoming path.
func lockMeet(a, b lockSet) lockSet {
	c := lockSet{}
	for k, v := range a {
		if bv, ok := b[k]; ok {
			if bv < v {
				v = bv
			}
			c[k] = v
		}
	}
	return c
}

func lockSetEqual(a, b lockSet) bool {
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

// solveLocks runs the forward lockset dataflow over g to fixpoint with
// a worklist and returns the lockset at each block's entry. Blocks
// unreachable from the entry are absent. transfer pushes a lockset
// through one block and must not mutate its argument: the solver
// caches and compares sets across iterations. Locksets over the
// module's mutex fields are a finite lattice, so the loop terminates.
func solveLocks(g *CFG, boundary lockSet, transfer func(*Block, lockSet) lockSet) map[*Block]lockSet {
	in := map[*Block]lockSet{g.Entry: boundary}
	out := map[*Block]lockSet{}
	queue := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		queued[b] = false

		o := transfer(b, in[b])
		if old, computed := out[b]; computed && lockSetEqual(old, o) {
			continue
		}
		out[b] = o

		for _, s := range b.Succs {
			var acc lockSet
			reached := false
			for _, pr := range s.Preds {
				po, ok := out[pr]
				if !ok {
					continue
				}
				if reached {
					acc = lockMeet(acc, po)
				} else {
					acc, reached = po, true
				}
			}
			if !reached {
				continue
			}
			if old, seen := in[s]; seen && lockSetEqual(old, acc) {
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

// lockFacts is the module-wide lockset evidence: every field access
// and *Locked call with the locks held there, the guards inferred
// from the accesses, and one finding per function the CFG cannot model.
type lockFacts struct {
	ownerMutexes map[string][]string
	accesses     []lockAccess
	lockedCalls  []lockedCall
	guards       map[string]map[string]bool
	refused      []Diagnostic
}

// collectLockFacts runs the per-function lockset dataflow over every
// declaration in the module.
func collectLockFacts(m *Module) *lockFacts {
	lf := &lockFacts{ownerMutexes: collectOwnerMutexes(m.Units)}
	for _, u := range m.Units {
		for _, f := range u.Files {
			parents := parentMap(f)
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				g := BuildCFG(fd.Body)
				if g.Unsupported != nil {
					lf.refused = append(lf.refused, u.Diag(g.Unsupported.Pos(),
						"%s is uncheckable: the control-flow graph does not model goto, labels or fallthrough", fd.Name.Name))
					continue
				}
				la := &lockAnalysis{u: u, fd: fd, parents: parents, ownerMutexes: lf.ownerMutexes}
				la.run(g)
				lf.accesses = append(lf.accesses, la.accesses...)
				lf.lockedCalls = append(lf.lockedCalls, la.lockedCalls...)
			}
		}
	}
	lf.guards = inferGuards(lf.accesses)
	return lf
}

// collectOwnerMutexes maps each module struct (pkg.Type) to its mutex
// field keys, the basis of the *Locked convention.
func collectOwnerMutexes(units []*Unit) map[string][]string {
	ownerMutexes := map[string][]string{}
	for _, u := range units {
		scope := u.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			owner := u.Pkg.Path() + "." + tn.Name()
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if isMutexType(f.Type()) {
					ownerMutexes[owner] = append(ownerMutexes[owner], owner+"."+f.Name())
				}
			}
		}
	}
	return ownerMutexes
}

// inferGuards derives the guarded-field map: a field is guarded by a
// mutex of its own struct that is write-held at some non-exempt write.
func inferGuards(accesses []lockAccess) map[string]map[string]bool {
	guards := map[string]map[string]bool{}
	for _, a := range accesses {
		if !a.write || a.exempt {
			continue
		}
		for lock, level := range a.locks {
			if level >= lockWrite && strings.HasPrefix(lock, a.owner+".") {
				if guards[a.key] == nil {
					guards[a.key] = map[string]bool{}
				}
				guards[a.key][lock] = true
			}
		}
	}
	return guards
}

// lockAccess is one field access with its lock context.
type lockAccess struct {
	unit   *Unit
	pos    token.Pos
	key    string // pkg.Type.field
	owner  string // pkg.Type
	write  bool
	exempt bool // base object freshly allocated in this function
	locks  lockSet
}

func (a lockAccess) verb() string {
	if a.write {
		return "write"
	}
	return "read"
}

// holdsOneOf reports whether the access holds one of the guards at the
// strength it needs (write strength for writes, at least read strength
// for reads). An unguarded field needs nothing.
func (a lockAccess) holdsOneOf(guards map[string]bool) bool {
	need := lockRead
	if a.write {
		need = lockWrite
	}
	for lock := range guards {
		if a.locks[lock] >= need {
			return true
		}
	}
	return len(guards) == 0
}

// lockedCall is a call to a *Locked-suffixed method.
type lockedCall struct {
	unit  *Unit
	pos   token.Pos
	name  string
	owner string
	locks lockSet
}

type lockAnalysis struct {
	u            *Unit
	fd           *ast.FuncDecl
	parents      map[ast.Node]ast.Node
	ownerMutexes map[string][]string

	defs map[*types.Var][]Def // built on the first field access

	accesses    []lockAccess
	lockedCalls []lockedCall
}

func (la *lockAnalysis) run(g *CFG) {
	boundary := lockSet{}
	if strings.HasSuffix(la.fd.Name.Name, "Locked") {
		if owner := receiverOwner(la.u, la.fd); owner != "" {
			for _, lock := range la.ownerMutexes[owner] {
				boundary[lock] = lockWrite
			}
		}
	}

	in := solveLocks(g, boundary, func(b *Block, in lockSet) lockSet {
		cur := in.clone()
		for _, n := range b.Nodes {
			la.transfer(b, n, cur)
		}
		return cur
	})

	for _, blk := range g.Blocks {
		facts, ok := in[blk]
		if !ok {
			continue // unreachable
		}
		cur := facts.clone()
		for _, n := range blk.Nodes {
			if blk.Kind != "defers" {
				la.scanNode(n, cur)
			}
			la.transfer(blk, n, cur)
		}
	}
}

// transfer applies the lock operations a node performs, mutating set.
// Deferred calls act in the defers block, not where they appear.
func (la *lockAnalysis) transfer(blk *Block, n ast.Node, set lockSet) {
	if d, ok := n.(*ast.DeferStmt); ok {
		if blk.Kind == "defers" {
			la.applyLockOp(d.Call, set)
		}
		return
	}
	for _, part := range shallowParts(n) {
		inspectNoFuncLit(part, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				la.applyLockOp(call, set)
			}
			return true
		})
	}
}

// applyLockOp interprets call if it is a Lock/RLock/Unlock/RUnlock on
// a mutex struct field.
func (la *lockAnalysis) applyLockOp(call *ast.CallExpr, set lockSet) {
	info := la.u.Info
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return
	}
	base, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !isSel {
		return
	}
	key, isField := fieldKey(info, base)
	if !isField || !isMutexType(info.Selections[base].Type()) {
		return
	}
	switch fn.Name() {
	case "Lock":
		set[key] = lockWrite
	case "RLock":
		if set[key] < lockRead {
			set[key] = lockRead
		}
	case "Unlock", "RUnlock":
		delete(set, key)
	}
}

// scanNode records the field accesses and *Locked calls in one node
// under the current lockset.
func (la *lockAnalysis) scanNode(n ast.Node, set lockSet) {
	for _, part := range shallowParts(n) {
		inspectNoFuncLit(part, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.SelectorExpr:
				la.recordAccess(x, set)
			case *ast.CallExpr:
				la.recordLockedCall(x, set)
			}
			return true
		})
	}
}

func (la *lockAnalysis) recordAccess(sel *ast.SelectorExpr, set lockSet) {
	owner, key, ok := fieldOwnerKey(la.u.Info, sel)
	if !ok {
		return
	}
	if isMutexType(la.u.Info.Selections[sel].Type()) {
		return // the mutex itself is operated, not guarded
	}
	la.accesses = append(la.accesses, lockAccess{
		unit:   la.u,
		pos:    sel.Pos(),
		key:    key,
		owner:  owner,
		write:  isWriteContext(la.parents, sel),
		exempt: la.freshBase(sel),
		locks:  set.clone(),
	})
}

func (la *lockAnalysis) recordLockedCall(call *ast.CallExpr, set lockSet) {
	fn := calleeFunc(la.u.Info, call)
	if fn == nil || !strings.HasSuffix(fn.Name(), "Locked") {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	owner := namedOwner(sig.Recv().Type())
	if owner == "" || len(la.ownerMutexes[owner]) == 0 {
		return
	}
	la.lockedCalls = append(la.lockedCalls, lockedCall{
		unit:  la.u,
		pos:   call.Pos(),
		name:  fn.Name(),
		owner: owner,
		locks: set.clone(),
	})
}

// freshBase reports whether the root of sel's base chain is a local
// variable all of whose definitions are fresh allocations — the object
// cannot be shared yet, so lock discipline does not apply.
func (la *lockAnalysis) freshBase(sel *ast.SelectorExpr) bool {
	e := ast.Expr(sel)
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			v, _ := la.u.Info.Uses[x].(*types.Var)
			if v == nil {
				return false
			}
			if la.defs == nil {
				la.defs = localDefs(la.u.Info, la.fd)
			}
			defs := la.defs[v]
			if len(defs) == 0 {
				return false // untracked: package var, closure parameter
			}
			for _, d := range defs {
				if !freshDef(d) {
					return false
				}
			}
			return true
		default:
			return false
		}
	}
}

// freshDef reports whether a definition provably yields a freshly
// allocated, unshared object: x := T{...}, x := &T{...}, x := new(T),
// or a zero-value var declaration.
func freshDef(d Def) bool {
	if d.Rhs == nil {
		if _, isDecl := d.Node.(*ast.DeclStmt); isDecl {
			return true // var x T with no initializer
		}
		return false // parameter, range binding, multi-assign
	}
	switch rhs := ast.Unparen(d.Rhs).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if rhs.Op != token.AND {
			return false
		}
		_, isLit := ast.Unparen(rhs.X).(*ast.CompositeLit)
		return isLit
	case *ast.CallExpr:
		if id, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// isWriteContext reports whether sel is written: an assignment LHS, an
// inc/dec operand, or has its address taken (conservatively a write).
func isWriteContext(parents map[ast.Node]ast.Node, sel *ast.SelectorExpr) bool {
	switch p := skipParens(parents, sel).(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if ast.Unparen(lhs) == ast.Expr(sel) {
				return true
			}
		}
	case *ast.IncDecStmt:
		return ast.Unparen(p.X) == ast.Expr(sel)
	case *ast.UnaryExpr:
		return p.Op == token.AND
	}
	return false
}

// skipParens returns n's nearest non-parenthesis ancestor.
func skipParens(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	p := parents[n]
	for {
		par, ok := p.(*ast.ParenExpr)
		if !ok {
			return p
		}
		p = parents[par]
	}
}

// fieldKey names a field selection as pkgpath.Recv.field; ok is false
// when sel is not a field of a named struct type.
func fieldKey(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	_, key, ok := fieldOwnerKey(info, sel)
	return key, ok
}

// fieldOwnerKey is fieldKey plus the owning struct's key.
func fieldOwnerKey(info *types.Info, sel *ast.SelectorExpr) (owner, key string, ok bool) {
	s, found := info.Selections[sel]
	if !found || s.Kind() != types.FieldVal {
		return "", "", false
	}
	owner = namedOwner(s.Recv())
	if owner == "" {
		return "", "", false
	}
	return owner, owner + "." + s.Obj().Name(), true
}

// namedOwner renders a (possibly pointer-to) named type as pkg.Type.
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

// receiverOwner returns the pkg.Type key of fd's receiver, or "".
func receiverOwner(u *Unit, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	tv, ok := u.Info.Types[fd.Recv.List[0].Type]
	if !ok {
		return ""
	}
	return namedOwner(tv.Type)
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex
// (possibly behind a pointer).
func isMutexType(t types.Type) bool {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	return tn.Pkg() != nil && tn.Pkg().Path() == "sync" &&
		(tn.Name() == "Mutex" || tn.Name() == "RWMutex")
}

// guardNames renders a guard set (or, with nil gs, nothing) for
// diagnostics, trimming the shared owner prefix for readability.
func guardNames(gs map[string]bool, owner string) string {
	var names []string
	for g := range gs {
		names = append(names, strings.TrimPrefix(g, ownerPkgPrefix(owner)))
	}
	sort.Strings(names)
	return strings.Join(names, " or ")
}

func shortLockList(locks []string, owner string) string {
	var names []string
	for _, l := range locks {
		names = append(names, strings.TrimPrefix(l, ownerPkgPrefix(owner)))
	}
	return strings.Join(names, " and ")
}

// ownerPkgPrefix strips pkg path from pkg.Type, leaving "Type." as the
// prefix diagnostics keep.
func ownerPkgPrefix(owner string) string {
	if i := strings.LastIndex(owner, "."); i >= 0 {
		return owner[:i+1]
	}
	return ""
}
