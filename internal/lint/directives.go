package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"unicode"
)

const directivePrefix = "//dimred:"

// SharedDirective marks a struct field that a Clone deliberately shares
// between the original and the copy instead of deep-copying, with a
// mandatory one-line reason:
//
//	//dimred:shared <reason>
//
// clonecheck accepts a direct copy of an annotated reference field, and
// snapalias stops deriving immutability through it: the annotation is a
// reviewed claim that the shared object is safe to reach from both
// sides of a publish boundary (e.g. it is internally synchronized, or
// frozen by construction).
const SharedDirective = directivePrefix + "shared"

// directiveContext classifies the syntactic positions where a
// //dimred: directive takes effect.
type directiveContext int

const (
	ctxAnyLine   directiveContext = iota // keyed to a source line, wherever it is
	ctxStructDoc                         // full line of a struct type's doc comment
	ctxFieldDoc                          // doc or line comment of a named struct's field
	ctxFuncDoc                           // full line of a function's doc comment
)

// directiveSpec is one entry of the directive registry.
type directiveSpec struct {
	name          string
	wantsAnalyzer bool // first argument must name a registered analyzer
	// wantsReason: a free-text reason is mandatory. unknowndirective
	// reports an allow without one; a reasonless shared is clonecheck's
	// finding, the analyzer that consumes it.
	wantsReason bool
	contexts    []directiveContext
	where       string // human description of the required position
}

// knownDirectives is the registry every //dimred: comment is parsed and
// validated against. A directive missing from this table is a typo, and
// a typo'd directive is a silent soundness hole — the analyzer it was
// meant to configure never sees it — so unknowndirective makes any
// unregistered or malformed //dimred: comment a blocking finding.
var knownDirectives = []directiveSpec{
	{name: "allow", wantsAnalyzer: true, wantsReason: true,
		contexts: []directiveContext{ctxAnyLine},
		where:    "the offending line or the line directly above it"},
	{name: "aggregate",
		contexts: []directiveContext{ctxFuncDoc},
		where:    "a function's doc comment"},
	{name: "immutable",
		contexts: []directiveContext{ctxStructDoc},
		where:    "a struct type's doc comment"},
	{name: "shared", wantsReason: true,
		contexts: []directiveContext{ctxFieldDoc},
		where:    "a struct field's doc or line comment"},
}

func directiveByName(name string) *directiveSpec {
	for i := range knownDirectives {
		if knownDirectives[i].name == name {
			return &knownDirectives[i]
		}
	}
	return nil
}

// directive is one //dimred:<name> comment together with the syntactic
// position it occupies. It is the single parse every consumer reads:
// the per-analyzer tables below, the allow lookup, the audit and
// unknowndirective's validation.
type directive struct {
	unit    *Unit
	comment *ast.Comment
	name    string
	args    string         // text after the name, space-trimmed
	spec    *directiveSpec // nil when the name is not in the registry
	// ctx is the most specific position the comment occupies: a struct
	// type's, named struct field's or function's doc, else a plain line.
	ctx directiveContext
	// owner is the declaration a doc or line comment belongs to (a
	// field's doc and trailing comment share one); its comment group
	// otherwise.
	owner ast.Node
	typ   *ast.TypeSpec // the struct type, for ctxStructDoc and ctxFieldDoc
}

func (d *directive) pos() token.Position { return d.unit.Fset.Position(d.comment.Pos()) }

// inContext reports whether the directive sits where it takes effect.
func (d *directive) inContext() bool {
	for _, ctx := range d.spec.contexts {
		if ctx == ctxAnyLine || ctx == d.ctx {
			return true
		}
	}
	return false
}

// parseDirectives returns every //dimred: comment of the loaded units
// in source order.
func parseDirectives(units []*Unit) []directive {
	var out []directive
	for _, u := range units {
		for _, f := range u.Files {
			placed := map[*ast.Comment]directive{}
			mark := func(cg *ast.CommentGroup, ctx directiveContext, owner ast.Node, typ *ast.TypeSpec) {
				if cg == nil {
					return
				}
				for _, c := range cg.List {
					placed[c] = directive{ctx: ctx, owner: owner, typ: typ}
				}
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					mark(d.Doc, ctxFuncDoc, d, nil)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok {
							continue
						}
						st, isStruct := ts.Type.(*ast.StructType)
						if !isStruct {
							continue
						}
						mark(ts.Doc, ctxStructDoc, ts, ts)
						if ts.Doc == nil && len(d.Specs) == 1 {
							mark(d.Doc, ctxStructDoc, ts, ts)
						}
						for _, field := range st.Fields.List {
							mark(field.Doc, ctxFieldDoc, field, ts)
							mark(field.Comment, ctxFieldDoc, field, ts)
						}
					}
				}
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, directivePrefix)
					if !ok {
						continue
					}
					d := placed[c]
					d.unit, d.comment, d.name = u, c, rest
					if i := strings.IndexFunc(rest, unicode.IsSpace); i >= 0 {
						d.name, d.args = rest[:i], strings.TrimSpace(rest[i:])
					}
					d.spec = directiveByName(d.name)
					if d.owner == nil {
						d.owner = cg
					}
					out = append(out, d)
				}
			}
		}
	}
	return out
}

// sharedField is one //dimred:shared-annotated struct field.
type sharedField struct {
	unit   *Unit
	pos    token.Pos
	reason string // "" when the mandatory reason is missing
}

// allowKey names one analyzer's findings on one source line.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// directiveTable is what the well-placed directives of a module
// configure, keyed the way each consuming analyzer looks them up. A
// misplaced or malformed directive lands in no table: it configures
// nothing, and unknowndirective reports it.
type directiveTable struct {
	all       []directive
	immutable map[string]bool        // pkg.Type
	shared    map[string]sharedField // pkg.Type.field
	aggregate map[*ast.FuncDecl]bool
	// allowed holds the lines a reasoned //dimred:allow silences: its own
	// and the one below, so it can sit at the end of the offending line or
	// on its own line above it.
	allowed map[allowKey]bool
}

func newDirectiveTable(units []*Unit) *directiveTable {
	t := &directiveTable{
		all:       parseDirectives(units),
		immutable: map[string]bool{},
		shared:    map[string]sharedField{},
		aggregate: map[*ast.FuncDecl]bool{},
		allowed:   map[allowKey]bool{},
	}
	for i := range t.all {
		d := &t.all[i]
		if d.spec == nil || !d.inContext() {
			continue
		}
		if !d.spec.wantsReason && d.args != "" {
			continue // trailing text disables a no-argument directive
		}
		switch d.name {
		case "allow":
			if analyzer, reason := d.allowArgs(); reason != "" {
				p := d.pos()
				t.allowed[allowKey{p.Filename, p.Line, analyzer}] = true
				t.allowed[allowKey{p.Filename, p.Line + 1, analyzer}] = true
			}
		case "immutable":
			t.immutable[d.unit.Pkg.Path()+"."+d.typ.Name.Name] = true
		case "aggregate":
			t.aggregate[d.owner.(*ast.FuncDecl)] = true
		case "shared":
			for _, name := range d.owner.(*ast.Field).Names {
				key := d.unit.Pkg.Path() + "." + d.typ.Name.Name + "." + name.Name
				if _, dup := t.shared[key]; !dup {
					t.shared[key] = sharedField{unit: d.unit, pos: name.Pos(), reason: d.args}
				}
			}
		}
	}
	return t
}

// Allow is one reasoned escape hatch found in the source tree, for the
// suppression audit (dimredlint -audit).
type Allow struct {
	Pos      token.Position
	Analyzer string
	Reason   string
}

// AuditEscapes returns every reasoned //dimred:allow suppression in the
// loaded units, sorted by position. A reason is mandatory: an allow
// without one suppresses nothing and is not listed.
func AuditEscapes(units []*Unit) []Allow {
	var out []Allow
	for _, d := range parseDirectives(units) {
		if d.name != "allow" {
			continue
		}
		if analyzer, reason := d.allowArgs(); reason != "" {
			out = append(out, Allow{Pos: d.pos(), Analyzer: analyzer, Reason: reason})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}

// allowArgs splits an allow directive's arguments into the analyzer it
// silences and the reason given.
func (d *directive) allowArgs() (analyzer, reason string) {
	fields := strings.Fields(d.args)
	if len(fields) == 0 {
		return "", ""
	}
	return fields[0], strings.Join(fields[1:], " ")
}
