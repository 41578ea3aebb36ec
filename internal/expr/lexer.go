package expr

import (
	"fmt"
	"strings"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumWord // starts with a digit; may contain digits, '/', 'W', 'Q'
	tokString  // quoted value literal
	tokPunct   // one of [ ] { } ( ) , .
	tokOp      // < <= = != >= >
	tokError   // where lexing failed; the grammar accepts it nowhere
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer scans src one token at a time. A token's text is a substring of
// src or an operator's canonical spelling, so scanning allocates nothing
// but the text of a string literal with escapes.
type lexer struct {
	src string
	pos int
}

// next scans the token at l.pos and moves past it; at the end of input it
// returns tokEOF.
func (l *lexer) next() (token, error) {
	l.skipSpace()
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case c == '"' || c == '\'':
		return l.lexString(c)
	case isDigit(c):
		return l.lexNumWord(), nil
	case isIdentStart(c):
		return l.lexIdent(), nil
	case strings.IndexByte("[]{}(),.", c) >= 0:
		l.pos++
		return token{kind: tokPunct, text: l.src[start:l.pos], pos: start}, nil
	case c == '<':
		switch l.peek(1) {
		case '=':
			return l.op("<=", 2), nil
		case '>':
			return l.op("!=", 2), nil
		}
		return l.op("<", 1), nil
	case c == '>':
		if l.peek(1) == '=' {
			return l.op(">=", 2), nil
		}
		return l.op(">", 1), nil
	case c == '=':
		if l.peek(1) == '=' {
			l.pos++ // tolerate "=="
		}
		return l.op("=", 1), nil
	case c == '!':
		if l.peek(1) != '=' {
			return token{}, fmt.Errorf("expr: lex: stray '!' at offset %d", l.pos)
		}
		return l.op("!=", 2), nil
	case c == '+':
		return l.op("+", 1), nil
	case c == '-':
		return l.op("-", 1), nil
	}
	return token{}, fmt.Errorf("expr: lex: unexpected character %q at offset %d", c, l.pos)
}

// scan is next for the parser: a lex error becomes a tokError token.
func (l *lexer) scan() token {
	t, err := l.next()
	if err != nil {
		return token{kind: tokError}
	}
	return t
}

// lexError returns the first lex error in src, or nil when all of it
// lexes. The parser meets a lex error only as a tokError token, so its
// entry points ask this on failure: a lex error anywhere in the input
// outranks a parse error before it.
func lexError(src string) error {
	l := lexer{src: src}
	for {
		t, err := l.next()
		if err != nil || t.kind == tokEOF {
			return err
		}
	}
}

// op is the operator token at l.pos, width bytes of source long.
func (l *lexer) op(text string, width int) token {
	t := token{kind: tokOp, text: text, pos: l.pos}
	l.pos += width
	return t
}

func (l *lexer) peek(ahead int) byte {
	if l.pos+ahead >= len(l.src) {
		return 0
	}
	return l.src[l.pos+ahead]
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case ' ', '\t', '\n', '\r':
			l.pos++
		default:
			return
		}
	}
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }

// lexString scans a quoted value literal; a backslash takes the next byte
// literally.
func (l *lexer) lexString(quote byte) (token, error) {
	start := l.pos
	l.pos++
	from, escaped := l.pos, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			text := l.src[from:l.pos]
			if escaped {
				text = unescape(text)
			}
			l.pos++
			return token{kind: tokString, text: text, pos: start}, nil
		}
		if c == '\\' && l.pos+1 < len(l.src) {
			escaped = true
			l.pos++
		}
		l.pos++
	}
	return token{}, fmt.Errorf("expr: lex: unterminated string at offset %d", start)
}

// unescape drops the backslash of each escape in a string literal's body.
func unescape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// lexNumWord scans a token beginning with a digit: a plain number ("6"),
// or a time literal ("1999", "1999/12", "1999/12/4", "1999W48", "1999Q4").
func (l *lexer) lexNumWord() token {
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isDigit(c) || c == '/' {
			l.pos++
			continue
		}
		// W and Q join week/quarter literals only when followed by a digit.
		if (c == 'W' || c == 'Q') && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
			l.pos++
			continue
		}
		break
	}
	return token{kind: tokNumWord, text: l.src[start:l.pos], pos: start}
}

func (l *lexer) lexIdent() token {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}
}
