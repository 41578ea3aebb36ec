package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// clonecheck enforces deep-copy exhaustiveness for the engine's Clone
// methods. The left-right commit protocol rebuilds the working side
// from a Clone of the published cube set; a field the Clone forgets —
// typically one added to a struct months after the Clone was written —
// silently aliases state across the publish boundary, which is exactly
// the class of bug no test notices until a concurrent reader does.
//
// For every composite literal of a module-declared struct type inside a
// method named Clone (or clone), each field of the struct must be:
//
//   - present in the literal or assigned somewhere in the body
//     (c.refs[i] = ..., copy(c.base, ...) and append-into count), and
//   - not a *direct copy* of a reference-carrying field: a value
//     rows: s.rows that reads another struct's field verbatim is
//     accepted only when the field's type is reference-free (no
//     pointers, slices, maps, channels, funcs or interfaces at any
//     depth — such values are copied whole) or when the field is
//     annotated //dimred:shared with a reason.
//
// Values produced any other way (a Clone call, append/make, a nested
// literal, an explicit nil reset) are taken as deliberate: the check
// guards against the two silent failure shapes — omission and verbatim
// aliasing — not against wrong deep-copy logic, which fixtures and
// round-trip tests cover.
//
// A //dimred:shared directive without a reason is itself a finding:
// the annotation is only useful as a reviewed, explained decision.

// NewCloneCheck builds the clonecheck analyzer.
func NewCloneCheck() *Analyzer {
	a := &Analyzer{
		Name: "clonecheck",
		Doc: "every field of a struct built inside a Clone method must be cloned, copied " +
			"by reference-free value, or annotated " + SharedDirective + " with a reason",
	}
	a.RunModule = func(m *Module) []Diagnostic {
		shared := m.dirs.shared

		var ds []Diagnostic
		var sharedKeys []string
		for key := range shared {
			sharedKeys = append(sharedKeys, key)
		}
		sort.Strings(sharedKeys)
		for _, key := range sharedKeys {
			if sf := shared[key]; sf.reason == "" {
				ds = append(ds, sf.unit.Diag(sf.pos,
					"%s on %s is missing the mandatory reason", SharedDirective, key))
			}
		}

		for _, key := range m.graph.keys {
			node := m.graph.Nodes[key]
			if fd := node.Decl; fd.Recv != nil && (fd.Name.Name == "Clone" || fd.Name.Name == "clone") {
				ds = append(ds, checkCloneBody(node.Unit, fd, m.pkgs, shared)...)
			}
		}
		return ds
	}
	return a
}

// cloneFieldHandling records how a Clone body touches one struct field
// outside the composite literal.
type cloneFieldHandling struct {
	direct []ast.Expr // whole-field assignments: rhs candidates for the alias check
	other  bool       // indexed/element-wise/multi-value assignment or copy builtin
}

// checkCloneBody verifies deep-copy exhaustiveness for every module
// struct literal in one Clone method.
func checkCloneBody(u *Unit, fd *ast.FuncDecl, modulePkgs map[string]bool, shared map[string]sharedField) []Diagnostic {
	assigned := map[*types.Var]*cloneFieldHandling{}
	handle := func(v *types.Var) *cloneFieldHandling {
		if assigned[v] == nil {
			assigned[v] = &cloneFieldHandling{}
		}
		return assigned[v]
	}
	// Pass 1: field assignments and copy builtins anywhere in the body.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				v, wrapped := assignedField(u.Info, lhs)
				if v == nil {
					continue
				}
				if wrapped || len(st.Lhs) != len(st.Rhs) {
					handle(v).other = true
				} else {
					handle(v).direct = append(handle(v).direct, st.Rhs[i])
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok && len(st.Args) > 0 {
				if b, ok := u.Info.Uses[id].(*types.Builtin); ok && b.Name() == "copy" {
					if v, _ := assignedField(u.Info, st.Args[0]); v != nil {
						handle(v).other = true
					}
				}
			}
		}
		return true
	})

	// Pass 2: exhaustiveness over every module struct literal.
	var ds []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		tv, ok := u.Info.Types[cl]
		if !ok {
			return true
		}
		named, ok := tv.Type.(*types.Named)
		if !ok || named.Obj().Pkg() == nil || !modulePkgs[named.Obj().Pkg().Path()] {
			return true
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return true
		}
		owner := named.Obj().Pkg().Path() + "." + named.Obj().Name()
		typeName := named.Obj().Name()

		positional := len(cl.Elts) > 0
		byKey := map[string]ast.Expr{}
		for _, elt := range cl.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				positional = false
				if id, ok := kv.Key.(*ast.Ident); ok {
					byKey[id.Name] = kv.Value
				}
			}
		}

		checkDirect := func(field *types.Var, rhs ast.Expr) {
			sel, ok := ast.Unparen(rhs).(*ast.SelectorExpr)
			if !ok {
				return // built, not copied: deliberate
			}
			if s := u.Info.Selections[sel]; s == nil || s.Kind() != types.FieldVal {
				return
			}
			key := owner + "." + field.Name()
			if _, isShared := shared[key]; isShared {
				return
			}
			if refFree(field.Type()) {
				return
			}
			ds = append(ds, u.Diag(rhs.Pos(),
				"Clone of %s aliases reference field %s (%s); deep-copy it or annotate %s with a reason",
				typeName, field.Name(), field.Type().String(), SharedDirective))
		}

		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			if field.Name() == "_" {
				continue
			}
			switch {
			case positional:
				if i < len(cl.Elts) {
					checkDirect(field, cl.Elts[i])
				}
			case byKey[field.Name()] != nil:
				checkDirect(field, byKey[field.Name()])
			case assigned[field] != nil:
				for _, rhs := range assigned[field].direct {
					checkDirect(field, rhs)
				}
			default:
				ds = append(ds, u.Diag(cl.Pos(),
					"Clone of %s does not copy field %s; every field must be cloned, copied, or annotated %s",
					typeName, field.Name(), SharedDirective))
			}
		}
		return true
	})
	return ds
}

// assignedField resolves an assignment target (or copy destination) to
// the struct field it stores into, unwrapping element writes:
// c.refs[i] = ... handles refs, *c.p = ... handles p. wrapped reports
// whether the write went through such an unwrap (an element write, not
// a whole-field copy).
func assignedField(info *types.Info, lhs ast.Expr) (v *types.Var, wrapped bool) {
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
			wrapped = true
			continue
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
			wrapped = true
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil, false
	}
	f, ok := s.Obj().(*types.Var)
	if !ok {
		return nil, false
	}
	return f, wrapped
}

// refFree reports whether values of t carry no references: assigning
// such a value copies it whole, so a direct field copy cannot alias.
// Strings are immutable and count as reference-free.
func refFree(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !refFree(u.Field(i).Type()) {
				return false
			}
		}
		return true
	case *types.Array:
		return refFree(u.Elem())
	}
	return false
}
