// Package expr implements the data reduction specification language of
// Table 1 in Skyt, Jensen & Pedersen: selection predicates over
// dimension categories with time expressions (including the NOW
// variable and unanchored spans), and action specifications
// "p(α[Clist] σ[Pexp](O))". It provides a lexer, a parser for a concrete
// syntax of the grammar, disjunctive-normal-form normalization (the
// paper requires predicates in DNF), and printing.
//
// Concrete syntax example (action a1 of the paper, Eq. 4):
//
//	aggregate [Time.month, URL.domain]
//	  where URL.domain_grp = ".com"
//	    and NOW - 12 months < Time.month <= NOW - 6 months
package expr

import (
	"fmt"
	"strings"

	"dimred/internal/caltime"
)

// Op is a comparison operator of the grammar.
type Op int

const (
	OpLT Op = iota
	OpLE
	OpEQ
	OpNE
	OpGE
	OpGT
	OpIn
	OpNotIn
)

var opNames = [...]string{"<", "<=", "=", "!=", ">=", ">", "in", "not in"}

// String returns the operator's concrete syntax.
func (o Op) String() string {
	if o < OpLT || o > OpNotIn {
		return fmt.Sprintf("Op(%d)", int(o))
	}
	return opNames[o]
}

// Negate returns the complementary operator, used when pushing negations
// inward during DNF normalization.
func (o Op) Negate() Op {
	switch o {
	case OpLT:
		return OpGE
	case OpLE:
		return OpGT
	case OpEQ:
		return OpNE
	case OpNE:
		return OpEQ
	case OpGE:
		return OpLT
	case OpGT:
		return OpLE
	case OpIn:
		return OpNotIn
	case OpNotIn:
		return OpIn
	}
	panic(fmt.Sprintf("expr: Negate: bad op %d", o))
}

// Flip returns the operator with its operands swapped (a < b iff b > a).
func (o Op) Flip() Op {
	switch o {
	case OpLT:
		return OpGT
	case OpLE:
		return OpGE
	case OpGT:
		return OpLT
	case OpGE:
		return OpLE
	default:
		return o
	}
}

// CatRef names a category of a dimension, e.g. Time.month.
type CatRef struct {
	Dim, Cat string
}

// String returns "Dim.cat".
func (c CatRef) String() string { return c.Dim + "." + c.Cat }

// Pred is a selection predicate node.
type Pred interface {
	fmt.Stringer
	isPred()
}

// Bool is the constant predicate true or false.
type Bool struct{ Value bool }

// Not negates a predicate.
type Not struct{ P Pred }

// And is an n-ary conjunction.
type And struct{ Ps []Pred }

// Or is an n-ary disjunction.
type Or struct{ Ps []Pred }

// TimeCmp compares a time category against a time expression:
// "Time.month <= NOW - 6 months".
type TimeCmp struct {
	Ref CatRef
	Op  Op // OpLT..OpGT
	RHS caltime.Expr
}

// TimeIn tests membership of a time category in a set of time
// expressions: "Time.quarter in {1999Q4, 2000Q1}". Negate gives "not in".
type TimeIn struct {
	Ref    CatRef
	Set    []caltime.Expr
	Negate bool
}

// ValueCmp compares a non-time category against a value literal:
// `URL.domain_grp = ".com"`.
type ValueCmp struct {
	Ref CatRef
	Op  Op // OpLT..OpGT
	RHS string
}

// ValueIn tests membership of a non-time category in a set of value
// literals. Negate gives "not in".
type ValueIn struct {
	Ref    CatRef
	Set    []string
	Negate bool
}

func (Bool) isPred()     {}
func (Not) isPred()      {}
func (And) isPred()      {}
func (Or) isPred()       {}
func (TimeCmp) isPred()  {}
func (TimeIn) isPred()   {}
func (ValueCmp) isPred() {}
func (ValueIn) isPred()  {}

func (p Bool) String() string {
	if p.Value {
		return "true"
	}
	return "false"
}

func (p Not) String() string { return "not (" + p.P.String() + ")" }

func joinPreds(ps []Pred, sep string) string {
	parts := make([]string, len(ps))
	for i, q := range ps {
		switch q.(type) {
		case And, Or:
			parts[i] = "(" + q.String() + ")"
		default:
			parts[i] = q.String()
		}
	}
	return strings.Join(parts, sep)
}

func (p And) String() string { return joinPreds(p.Ps, " and ") }
func (p Or) String() string  { return joinPreds(p.Ps, " or ") }

func (p TimeCmp) String() string {
	return fmt.Sprintf("%s %s %s", p.Ref, p.Op, p.RHS)
}

func (p TimeIn) String() string {
	items := make([]string, len(p.Set))
	for i, e := range p.Set {
		items[i] = e.String()
	}
	op := "in"
	if p.Negate {
		op = "not in"
	}
	return fmt.Sprintf("%s %s {%s}", p.Ref, op, strings.Join(items, ", "))
}

// quoteValue renders a value literal in the concrete syntax: the lexer
// understands exactly backslash-escaped quotes and backslashes, so the
// printer escapes exactly those (unlike %q, which would escape
// non-printable bytes the lexer cannot un-escape).
func quoteValue(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' || s[i] == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	b.WriteByte('"')
	return b.String()
}

func (p ValueCmp) String() string {
	return fmt.Sprintf("%s %s %s", p.Ref, p.Op, quoteValue(p.RHS))
}

func (p ValueIn) String() string {
	items := make([]string, len(p.Set))
	for i, v := range p.Set {
		items[i] = quoteValue(v)
	}
	op := "in"
	if p.Negate {
		op = "not in"
	}
	return fmt.Sprintf("%s %s {%s}", p.Ref, op, strings.Join(items, ", "))
}

// ActionSpec is a parsed action "p(α[Clist] σ[Pexp](O))": the target
// granularity Clist (one category reference per dimension) and the
// selection predicate. Delete marks a fact-deletion action ("delete
// where <pred>"), the extension the paper's Section 8 names as future
// work; deletion behaves as aggregation to a granularity above
// everything, so it slots into the <=_V order naturally.
type ActionSpec struct {
	Targets []CatRef
	Pred    Pred
	Delete  bool
}

// String renders the action in concrete syntax.
func (a ActionSpec) String() string {
	var s string
	if a.Delete {
		s = "delete"
	} else {
		refs := make([]string, len(a.Targets))
		for i, r := range a.Targets {
			refs[i] = r.String()
		}
		s = "aggregate [" + strings.Join(refs, ", ") + "]"
	}
	if a.Pred != nil {
		if b, ok := a.Pred.(Bool); !ok || !b.Value {
			s += " where " + a.Pred.String()
		}
	}
	return s
}

// Atoms appends every atomic predicate in p (TimeCmp, TimeIn, ValueCmp,
// ValueIn, Bool) to dst and returns it.
func Atoms(p Pred, dst []Pred) []Pred {
	switch q := p.(type) {
	case Not:
		return Atoms(q.P, dst)
	case And:
		for _, c := range q.Ps {
			dst = Atoms(c, dst)
		}
		return dst
	case Or:
		for _, c := range q.Ps {
			dst = Atoms(c, dst)
		}
		return dst
	default:
		return append(dst, p)
	}
}

// UsesNow reports whether any time expression in p references NOW, which
// makes the action dynamic in the sense of Section 4.3.
func UsesNow(p Pred) bool {
	for _, a := range Atoms(p, nil) {
		switch q := a.(type) {
		case TimeCmp:
			if q.RHS.IsNowRelative() {
				return true
			}
		case TimeIn:
			for _, e := range q.Set {
				if e.IsNowRelative() {
					return true
				}
			}
		}
	}
	return false
}
