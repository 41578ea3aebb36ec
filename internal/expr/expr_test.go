package expr

import (
	"math/rand"
	"strings"
	"testing"

	"dimred/internal/caltime"
)

// Concrete-syntax renderings of the paper's actions.
const (
	srcA1 = `aggregate [Time.month, URL.domain] where URL.domain_grp = ".com" and NOW - 12 months < Time.month <= NOW - 6 months`
	srcA2 = `aggregate [Time.quarter, URL.domain] where URL.domain_grp = ".com" and Time.quarter <= NOW - 4 quarters`
	srcA3 = `aggregate [Time.month, URL.domain_grp] where URL.url = "www.cnn.com/health" and Time.month <= 1999/12`
	srcA4 = `aggregate [Time.week, URL.url] where URL.url = "www.cnn.com/health" and Time.month <= 1999/12`
	srcA7 = `aggregate [Time.month, URL.domain] where Time.month <= NOW - 12 months`
	srcA8 = `aggregate [Time.month, URL.domain] where Time.month <= 1999/12`
)

func TestParsePaperActions(t *testing.T) {
	for _, src := range []string{srcA1, srcA2, srcA3, srcA4, srcA7, srcA8} {
		a, err := ParseAction(src)
		if err != nil {
			t.Fatalf("ParseAction(%q): %v", src, err)
		}
		if len(a.Targets) != 2 {
			t.Errorf("targets = %v", a.Targets)
		}
	}
}

func TestParseActionA1Structure(t *testing.T) {
	a, err := ParseAction(srcA1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Targets[0] != (CatRef{"Time", "month"}) || a.Targets[1] != (CatRef{"URL", "domain"}) {
		t.Errorf("targets = %v", a.Targets)
	}
	and, ok := a.Pred.(And)
	if !ok {
		t.Fatalf("predicate is %T, want And", a.Pred)
	}
	// URL.domain_grp = ".com", then the chained range desugared to two
	// TimeCmp atoms.
	if len(and.Ps) != 3 {
		t.Fatalf("conjuncts = %d, want 3: %v", len(and.Ps), a.Pred)
	}
	vc, ok := and.Ps[0].(ValueCmp)
	if !ok || vc.RHS != ".com" || vc.Op != OpEQ {
		t.Errorf("first conjunct = %v", and.Ps[0])
	}
	// "NOW - 12 months < Time.month" must flip to Time.month > NOW - 12 months.
	tc1, ok := and.Ps[1].(TimeCmp)
	if !ok || tc1.Op != OpGT || !tc1.RHS.IsNowRelative() {
		t.Errorf("second conjunct = %v", and.Ps[1])
	}
	tc2, ok := and.Ps[2].(TimeCmp)
	if !ok || tc2.Op != OpLE {
		t.Errorf("third conjunct = %v", and.Ps[2])
	}
	now, _ := caltime.ParseDay("2000/11/5")
	if got := tc2.RHS.EvalPeriod(now, caltime.UnitMonth).String(); got != "2000/5" {
		t.Errorf("upper bound at 2000/11/5 = %s, want 2000/5", got)
	}
	if !UsesNow(a.Pred) {
		t.Error("a1 should use NOW")
	}
}

func TestParseAnchoredAction(t *testing.T) {
	a, err := ParseAction(srcA8)
	if err != nil {
		t.Fatal(err)
	}
	if UsesNow(a.Pred) {
		t.Error("a8 should not use NOW")
	}
	tc := a.Pred.(TimeCmp)
	u, ok := tc.RHS.BaseUnit()
	if !ok || u != caltime.UnitMonth {
		t.Errorf("anchor unit = %v, %v", u, ok)
	}
}

func TestParseInSets(t *testing.T) {
	p, err := ParsePred(`Time.quarter in {1999Q4, 2000Q1}`)
	if err != nil {
		t.Fatal(err)
	}
	ti, ok := p.(TimeIn)
	if !ok || len(ti.Set) != 2 || ti.Negate {
		t.Fatalf("parsed %v", p)
	}
	p, err = ParsePred(`URL.domain not in {"cnn.com", "amazon.com"}`)
	if err != nil {
		t.Fatal(err)
	}
	vi, ok := p.(ValueIn)
	if !ok || len(vi.Set) != 2 || !vi.Negate {
		t.Fatalf("parsed %v", p)
	}
	if _, err := ParsePred(`URL.domain in {"cnn.com", 1999Q4}`); err == nil {
		t.Error("mixed in-set accepted")
	}
}

func TestParseNotAndParens(t *testing.T) {
	// The Section 7.1 catch-all action a_bottom (Eq. 44) uses negated
	// conjunctions.
	src := `not (URL.domain_grp = ".com" and Time.month <= NOW - 6 months) and not (URL.domain = "gatech.edu" and Time.week <= NOW - 36 weeks)`
	p, err := ParsePred(src)
	if err != nil {
		t.Fatal(err)
	}
	and, ok := p.(And)
	if !ok || len(and.Ps) != 2 {
		t.Fatalf("parsed %v", p)
	}
	for _, c := range and.Ps {
		if _, ok := c.(Not); !ok {
			t.Errorf("conjunct %v is not a negation", c)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`aggregate`,
		`aggregate [Time.month`,
		`aggregate [Time.month] where`,
		`aggregate [Time] where true`,
		`Time.month <`,
		`Time.month < URL.domain`,          // two category references
		`1999/12 < 2000/1`,                 // no category reference
		`Time.month ! 1999`,                // stray !
		`Time.month < 1999/13`,             // bad literal
		`Time.month in {}`,                 // empty set
		`Time.month < NOW - 6`,             // span missing unit
		`Time.month < NOW - 6 lightyears`,  // bad unit
		`Time.month < "x`,                  // unterminated string
		`Time.month < 1999 trailing stuff`, // trailing input
		`not`,
		`Time.month not 1999`,
	}
	for _, src := range bad {
		if _, err := ParsePred(src); err == nil {
			t.Errorf("ParsePred(%q) succeeded, want error", src)
		}
	}
}

func TestActionStringRoundTrip(t *testing.T) {
	for _, src := range []string{srcA1, srcA2, srcA3, srcA4, srcA7, srcA8} {
		a, err := ParseAction(src)
		if err != nil {
			t.Fatal(err)
		}
		rendered := a.String()
		b, err := ParseAction(rendered)
		if err != nil {
			t.Fatalf("re-parse of %q: %v", rendered, err)
		}
		if b.String() != rendered {
			t.Errorf("round-trip unstable:\n  %q\n  %q", rendered, b.String())
		}
	}
}

func TestPredStringRoundTrip(t *testing.T) {
	srcs := []string{
		`true`,
		`false`,
		`Time.quarter in {1999Q4, 2000Q1}`,
		`URL.domain not in {"a.com", "b.com"}`,
		`Time.week <= 1999W48 or Time.day >= 2000/1/4 and URL.url != "x"`,
		`not (Time.year = 1999)`,
		`Time.month > NOW - 12 months + 1 day`,
	}
	for _, src := range srcs {
		p, err := ParsePred(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		rendered := p.String()
		q, err := ParsePred(rendered)
		if err != nil {
			t.Fatalf("re-parse of %q: %v", rendered, err)
		}
		if q.String() != rendered {
			t.Errorf("round-trip unstable: %q vs %q", rendered, q.String())
		}
	}
}

func TestAtoms(t *testing.T) {
	p, err := ParsePred(`URL.domain_grp = ".com" and (Time.month <= 1999/12 or Time.week <= 1999W48)`)
	if err != nil {
		t.Fatal(err)
	}
	atoms := Atoms(p, nil)
	if len(atoms) != 3 {
		t.Errorf("atoms = %d, want 3", len(atoms))
	}
}

// evalBool evaluates the boolean skeleton of a predicate, treating each
// atom as an opaque variable looked up by its rendered form.
func evalBool(p Pred, env map[string]bool) bool {
	switch q := p.(type) {
	case Bool:
		return q.Value
	case Not:
		return !evalBool(q.P, env)
	case And:
		for _, c := range q.Ps {
			if !evalBool(c, env) {
				return false
			}
		}
		return true
	case Or:
		for _, c := range q.Ps {
			if evalBool(c, env) {
				return true
			}
		}
		return false
	default:
		return env[p.String()]
	}
}

// TestToDNFPreservesSemantics checks ToDNF against a truth-assignment
// oracle. The environment assigns each atom and its complemented form
// opposite values, so negation pushing is semantically visible. Only
// EQ/NE and In/NotIn atoms appear, whose negations are complements.
func TestToDNFPreservesSemantics(t *testing.T) {
	srcs := []string{
		`URL.a = "x" and (URL.b = "y" or URL.c = "z")`,
		`not (URL.a = "x" and URL.b = "y")`,
		`not (URL.a = "x" or not (URL.b = "y" and URL.c = "z"))`,
		`URL.a = "x" or URL.b = "y" and URL.c = "z" or not URL.d = "w"`,
		`true and URL.a = "x"`,
		`false or URL.a = "x"`,
		`not true`,
		`URL.a in {"1", "2"} and not (URL.b not in {"3"})`,
	}
	vars := []string{`URL.a = "x"`, `URL.b = "y"`, `URL.c = "z"`, `URL.d = "w"`,
		`URL.a in {"1", "2"}`, `URL.b in {"3"}`}
	rng := rand.New(rand.NewSource(7))
	for _, src := range srcs {
		p, err := ParsePred(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		d, err := ToDNF(p)
		if err != nil {
			t.Fatalf("ToDNF(%q): %v", src, err)
		}
		q := d.Pred()
		for trial := 0; trial < 64; trial++ {
			env := make(map[string]bool)
			for _, v := range vars {
				val := rng.Intn(2) == 0
				env[v] = val
				// The complemented atom gets the complemented value.
				env[strings.Replace(strings.Replace(v, " = ", " != ", 1), " in ", " not in ", 1)] = !val
			}
			if evalBool(p, env) != evalBool(q, env) {
				t.Fatalf("DNF changed semantics of %q under %v:\n  dnf = %v", src, env, q)
			}
		}
	}
}

func TestToDNFShape(t *testing.T) {
	p, err := ParsePred(`URL.a = "x" and (URL.b = "y" or URL.c = "z")`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ToDNF(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Disjuncts) != 2 || len(d.Disjuncts[0]) != 2 || len(d.Disjuncts[1]) != 2 {
		t.Errorf("DNF shape = %v", d)
	}
	// Constants.
	dTrue, _ := ToDNF(Bool{Value: true})
	if !dTrue.IsTrue() || dTrue.IsFalse() {
		t.Error("true DNF misclassified")
	}
	dFalse, _ := ToDNF(Bool{Value: false})
	if !dFalse.IsFalse() || dFalse.IsTrue() {
		t.Error("false DNF misclassified")
	}
	if _, err := ToDNF(nil); err == nil {
		t.Error("nil predicate accepted")
	}
	// An action split per Section 5.3: "A or B" yields two disjuncts.
	p2, _ := ParsePred(`URL.a = "x" or Time.month <= 1999/12`)
	d2, _ := ToDNF(p2)
	if len(d2.Disjuncts) != 2 {
		t.Errorf("split into %d disjuncts, want 2", len(d2.Disjuncts))
	}
}

func TestOpHelpers(t *testing.T) {
	negatePairs := map[Op]Op{OpLT: OpGE, OpLE: OpGT, OpEQ: OpNE, OpIn: OpNotIn}
	for a, b := range negatePairs {
		if a.Negate() != b || b.Negate() != a {
			t.Errorf("Negate(%v) pair broken", a)
		}
	}
	flipPairs := map[Op]Op{OpLT: OpGT, OpLE: OpGE, OpEQ: OpEQ, OpNE: OpNE}
	for a, b := range flipPairs {
		if a.Flip() != b {
			t.Errorf("Flip(%v) = %v, want %v", a, a.Flip(), b)
		}
	}
}

func TestLexerEdgeCases(t *testing.T) {
	// "==" and "<>" are tolerated as "=" and "!=".
	p, err := ParsePred(`URL.a == "x"`)
	if err != nil {
		t.Fatal(err)
	}
	if p.(ValueCmp).Op != OpEQ {
		t.Error("== not treated as =")
	}
	p, err = ParsePred(`URL.a <> "x"`)
	if err != nil {
		t.Fatal(err)
	}
	if p.(ValueCmp).Op != OpNE {
		t.Error("<> not treated as !=")
	}
	// Week literal vs identifier starting with W.
	p, err = ParsePred(`Time.week <= 2000W1`)
	if err != nil {
		t.Fatal(err)
	}
	if p.(TimeCmp).RHS.Anchor.Unit != caltime.UnitWeek {
		t.Error("week literal not recognized")
	}
}
