package expr

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"dimred/internal/caltime"
)

// ParseAction parses an action specification in concrete syntax:
//
//	aggregate [Time.month, URL.domain] where URL.domain_grp = ".com"
//	  and NOW - 12 months < Time.month <= NOW - 6 months
//
// An omitted where-clause means the predicate true.
func ParseAction(src string) (ActionSpec, error) {
	p := newParser(src)
	a, err := p.parseAction()
	if err == nil {
		err = p.end()
	}
	if err != nil {
		return ActionSpec{}, p.fail(err)
	}
	return a, nil
}

// ParsePred parses a bare selection predicate in concrete syntax.
func ParsePred(src string) (Pred, error) {
	p := newParser(src)
	pred, err := p.parseOr()
	if err == nil {
		err = p.end()
	}
	if err != nil {
		return nil, p.fail(err)
	}
	return pred, nil
}

// parser is a recursive-descent parser over tokens it pulls from the
// lexer one at a time; lookahead copies the lexer and scans on the copy.
type parser struct {
	lx  lexer
	tok token // the current token
}

func newParser(src string) parser {
	p := parser{lx: lexer{src: src}}
	p.advance()
	return p
}

func (p *parser) advance() { p.tok = p.lx.scan() }

func (p *parser) next() token { t := p.tok; p.advance(); return t }

// peek returns the token after the current one without consuming it.
func (p *parser) peek() token {
	lx := p.lx
	return lx.scan()
}

// end requires the whole input to have been consumed.
func (p *parser) end() error {
	if !p.at(tokEOF, "") {
		return fmt.Errorf("expr: parse: trailing input at %s (offset %d)", p.tok, p.tok.pos)
	}
	return nil
}

// fail reports a failed parse: the first lex error in the input, if
// there is one, else the parse error err.
func (p *parser) fail(err error) error {
	if lerr := lexError(p.lx.src); lerr != nil {
		return lerr
	}
	return err
}

func (p *parser) at(k tokKind, text string) bool {
	return p.tok.kind == k && (text == "" || p.tok.text == text)
}

func (p *parser) atKeyword(kw string) bool { return p.tok.isKeyword(kw) }

func (t token) isKeyword(kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) expectPunct(s string) error {
	if !p.at(tokPunct, s) {
		return fmt.Errorf("expr: parse: expected %q, found %s (offset %d)", s, p.tok, p.tok.pos)
	}
	p.advance()
	return nil
}

func (p *parser) parseAction() (ActionSpec, error) {
	if p.atKeyword("delete") {
		p.advance()
		var pred Pred = Bool{Value: true}
		if p.atKeyword("where") {
			p.advance()
			var err error
			pred, err = p.parseOr()
			if err != nil {
				return ActionSpec{}, err
			}
		}
		return ActionSpec{Delete: true, Pred: pred}, nil
	}
	if !p.atKeyword("aggregate") {
		return ActionSpec{}, fmt.Errorf("expr: parse: expected 'aggregate' or 'delete', found %s", p.tok)
	}
	p.advance()
	if err := p.expectPunct("["); err != nil {
		return ActionSpec{}, err
	}
	// The references collect on the stack and are copied out once: one
	// allocation however many there are.
	var buf [8]CatRef
	targets := buf[:0]
	for {
		ref, err := p.parseCatRef()
		if err != nil {
			return ActionSpec{}, err
		}
		targets = append(targets, ref)
		if p.at(tokPunct, ",") {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectPunct("]"); err != nil {
		return ActionSpec{}, err
	}
	var pred Pred = Bool{Value: true}
	if p.atKeyword("where") {
		p.advance()
		var err error
		pred, err = p.parseOr()
		if err != nil {
			return ActionSpec{}, err
		}
	}
	return ActionSpec{Targets: slices.Clone(targets), Pred: pred}, nil
}

func (p *parser) parseCatRef() (CatRef, error) {
	if !p.at(tokIdent, "") {
		return CatRef{}, fmt.Errorf("expr: parse: expected dimension name, found %s", p.tok)
	}
	dim := p.next().text
	if err := p.expectPunct("."); err != nil {
		return CatRef{}, err
	}
	if !p.at(tokIdent, "") {
		return CatRef{}, fmt.Errorf("expr: parse: expected category name after %q., found %s", dim, p.tok)
	}
	return CatRef{Dim: dim, Cat: p.next().text}, nil
}

func (p *parser) parseOr() (Pred, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	ps := flattenOr(nil, left)
	for p.atKeyword("or") {
		p.advance()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		ps = flattenOr(ps, right)
	}
	if len(ps) == 1 {
		return ps[0], nil
	}
	return Or{Ps: ps}, nil
}

func (p *parser) parseAnd() (Pred, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	ps := flattenAnd(nil, left)
	for p.atKeyword("and") {
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		ps = flattenAnd(ps, right)
	}
	if len(ps) == 1 {
		return ps[0], nil
	}
	return And{Ps: ps}, nil
}

// flattenAnd splices a nested conjunction (e.g. one produced by
// desugaring a chained comparison) into the enclosing conjunct list.
func flattenAnd(dst []Pred, p Pred) []Pred {
	if a, ok := p.(And); ok {
		return append(dst, a.Ps...)
	}
	return append(dst, p)
}

func flattenOr(dst []Pred, p Pred) []Pred {
	if o, ok := p.(Or); ok {
		return append(dst, o.Ps...)
	}
	return append(dst, p)
}

func (p *parser) parseUnary() (Pred, error) {
	// "not (pred)" or "not <atom>"; "not in" is left to the chain.
	if p.atKeyword("not") && !p.peek().isKeyword("in") {
		p.advance()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not{P: inner}, nil
	}
	if p.atKeyword("true") {
		p.advance()
		return Bool{Value: true}, nil
	}
	if p.atKeyword("false") {
		p.advance()
		return Bool{Value: false}, nil
	}
	if p.at(tokPunct, "(") {
		p.advance()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return p.parseChain()
}

// operand is one side of a comparison: a category reference, a time
// expression, or a quoted value literal.
type operand struct {
	ref     *CatRef
	timeExp *caltime.Expr
	value   *string
}

// parseChain parses "operand relop operand (relop operand)*" or
// "catref [not] in { items }", desugaring chained comparisons such as
// "tt1 < Time.month <= tt2" into a conjunction.
func (p *parser) parseChain() (Pred, error) {
	first, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	// Membership clause.
	negate := false
	if p.atKeyword("not") && p.peek().isKeyword("in") {
		p.advance()
		negate = true
	}
	if p.atKeyword("in") {
		p.advance()
		if first.ref == nil {
			return nil, fmt.Errorf("expr: parse: left side of 'in' must be a category reference")
		}
		return p.parseInSet(*first.ref, negate)
	}
	if negate {
		return nil, fmt.Errorf("expr: parse: expected 'in' after 'not', found %s", p.tok)
	}

	if !p.at(tokOp, "") || !isRelOp(p.tok.text) {
		return nil, fmt.Errorf("expr: parse: expected a comparison operator, found %s (offset %d)", p.tok, p.tok.pos)
	}
	var conj []Pred
	prev := first
	for p.at(tokOp, "") && isRelOp(p.tok.text) {
		op := relOpFromText(p.next().text)
		next, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		atom, err := makeCmp(prev, op, next)
		if err != nil {
			return nil, err
		}
		conj = append(conj, atom)
		prev = next
	}
	if len(conj) == 1 {
		return conj[0], nil
	}
	return And{Ps: conj}, nil
}

func isRelOp(s string) bool {
	switch s {
	case "<", "<=", "=", "!=", ">=", ">":
		return true
	}
	return false
}

func relOpFromText(s string) Op {
	switch s {
	case "<":
		return OpLT
	case "<=":
		return OpLE
	case "=":
		return OpEQ
	case "!=":
		return OpNE
	case ">=":
		return OpGE
	case ">":
		return OpGT
	}
	panic("expr: relOpFromText: " + s)
}

// makeCmp builds the atom for "left op right", normalizing so the
// category reference is on the left. Exactly one side must be a
// reference.
func makeCmp(left operand, op Op, right operand) (Pred, error) {
	if left.ref != nil && right.ref != nil {
		return nil, fmt.Errorf("expr: parse: comparison between two category references (%s, %s) is not in the grammar",
			left.ref, right.ref)
	}
	if left.ref == nil && right.ref == nil {
		return nil, fmt.Errorf("expr: parse: comparison needs a category reference on one side")
	}
	ref, rhs := left.ref, right
	if ref == nil {
		ref, rhs, op = right.ref, left, op.Flip()
	}
	switch {
	case rhs.timeExp != nil:
		return TimeCmp{Ref: *ref, Op: op, RHS: *rhs.timeExp}, nil
	case rhs.value != nil:
		// The grammar permits any op "defined for elements of this type";
		// whether an inequality is defined for the referenced category is
		// a semantic check made when the predicate is compiled against a
		// schema.
		return ValueCmp{Ref: *ref, Op: op, RHS: *rhs.value}, nil
	}
	return nil, fmt.Errorf("expr: parse: internal: empty operand")
}

func (p *parser) parseInSet(ref CatRef, negate bool) (Pred, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var times []caltime.Expr
	var vals []string
	for {
		o, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		switch {
		case o.timeExp != nil:
			times = append(times, *o.timeExp)
		case o.value != nil:
			vals = append(vals, *o.value)
		default:
			return nil, fmt.Errorf("expr: parse: category reference inside 'in' set")
		}
		if p.at(tokPunct, ",") {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	if len(times) > 0 && len(vals) > 0 {
		return nil, fmt.Errorf("expr: parse: 'in' set mixes time and value literals")
	}
	if len(times) > 0 {
		return TimeIn{Ref: ref, Set: times, Negate: negate}, nil
	}
	return ValueIn{Ref: ref, Set: vals, Negate: negate}, nil
}

func (p *parser) parseOperand() (operand, error) {
	t := p.tok
	switch {
	case t.kind == tokString:
		p.advance()
		s := t.text
		return operand{value: &s}, nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "NOW"):
		p.advance()
		e := caltime.NowExpr()
		e, err := p.parseSpanTail(e)
		if err != nil {
			return operand{}, err
		}
		return operand{timeExp: &e}, nil
	case t.kind == tokIdent:
		ref, err := p.parseCatRef()
		if err != nil {
			return operand{}, err
		}
		return operand{ref: &ref}, nil
	case t.kind == tokNumWord:
		period, err := caltime.ParsePeriod(t.text)
		if err != nil {
			return operand{}, fmt.Errorf("expr: parse: %w", err)
		}
		p.advance()
		e := caltime.AnchorExpr(period)
		e, err = p.parseSpanTail(e)
		if err != nil {
			return operand{}, err
		}
		return operand{timeExp: &e}, nil
	}
	return operand{}, fmt.Errorf("expr: parse: expected an operand, found %s (offset %d)", t, t.pos)
}

// parseSpanTail consumes "(+|-) N unit" adjustments following a time
// base. A '+'/'-' not followed by "N unit" is left for the caller (it
// cannot occur in valid input, so it surfaces as a parse error there).
func (p *parser) parseSpanTail(e caltime.Expr) (caltime.Expr, error) {
	for p.at(tokOp, "+") || p.at(tokOp, "-") {
		sign := p.tok.text
		la := p.lx // lookahead past the sign
		nTok := la.scan()
		if nTok.kind != tokNumWord {
			break
		}
		uTok := la.scan()
		if uTok.kind != tokIdent {
			return e, fmt.Errorf("expr: parse: expected a span unit after %q", nTok.text)
		}
		n, err := strconv.ParseInt(nTok.text, 10, 64)
		if err != nil {
			return e, fmt.Errorf("expr: parse: span count %q: %w", nTok.text, err)
		}
		u, err := caltime.ParseUnit(uTok.text)
		if err != nil {
			return e, fmt.Errorf("expr: parse: %w", err)
		}
		p.lx = la
		p.advance()
		if sign == "-" {
			e = e.Minus(caltime.Span{N: n, Unit: u})
		} else {
			e = e.Plus(caltime.Span{N: n, Unit: u})
		}
	}
	return e, nil
}
