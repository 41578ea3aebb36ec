package spec

import (
	"fmt"
	"slices"

	"dimred/internal/caltime"
	"dimred/internal/expr"
	"dimred/internal/mdm"
	"dimred/internal/prover"
)

// Atom is one compiled atomic constraint of a DNF disjunct: a comparison
// or membership test on one category of one dimension. Actions and
// queries share the grammar (Table 1's Pexp) and this compiled form;
// they differ in how they evaluate it — actions answer a boolean by name
// and ordinal, queries the Definition 5 triple. Value operands are kept
// by name so the atom stays correct as new dimension values arrive after
// compilation.
type Atom struct {
	Dim     int // TestConstTrue / TestConstFalse for the constant atoms
	Cat     mdm.CategoryID
	IsTime  bool
	Op      expr.Op
	Unit    caltime.Unit   // time atoms
	TimeRHS []caltime.Expr // time atoms: 1 expr for comparisons, n for sets
	ValRHS  []string       // value atoms: 1 name for comparisons, n for sets
}

// Sentinel dimension indices of the constant atoms true and false (as
// Atom.Dim, and as returned by TestShape).
const (
	TestConstTrue  = -1
	TestConstFalse = -2
)

// Action is a compiled reduction action p(α[Clist] σ[Pexp](O)), or a
// fact-deletion action "delete σ[Pexp](O)" (the Section 8 extension),
// which behaves as aggregation to a granularity above everything.
type Action struct {
	name      string
	src       expr.ActionSpec
	env       *Env
	target    mdm.Granularity // the function Cat (Eq. 8); all-top for deletions
	isDelete  bool
	disjuncts [][]Atom // the predicate in DNF
	usesNow   bool
	growing   bool
}

// Compile validates and compiles a parsed action specification against
// the environment, enforcing the conventions of Section 4.1:
//
//   - Clist names exactly one category per dimension of the schema;
//   - for every predicate constraint on dimension i at category C, the
//     Clist category C_i satisfies C_i <=_T C, so the predicate remains
//     evaluable on aggregated facts;
//   - comparison operators must be defined for the category (inequalities
//     need an ordered category);
//   - anchored time literals must have the type of the compared category;
//   - time expressions (and NOW) may only constrain the time dimension.
func Compile(name string, src expr.ActionSpec, env *Env) (*Action, error) {
	var target mdm.Granularity
	if src.Delete {
		// Deletion aggregates "to nothing": model it as the all-top
		// granularity so the <=_V order places it above every action.
		target = make(mdm.Granularity, len(env.Schema.Dims))
		for i, dim := range env.Schema.Dims {
			target[i] = dim.Top()
		}
	} else {
		var err error
		target, err = env.Schema.ResolveGranularity(len(src.Targets), func(i int) (string, string, bool) {
			return src.Targets[i].Dim, src.Targets[i].Cat, true
		})
		if err != nil {
			return nil, fmt.Errorf("spec: action %s: %w", name, err)
		}
	}
	// The Clist category must not exceed the predicate category.
	// (Deletion removes the facts, so continuous evaluability of the
	// predicate is moot and the check does not apply.)
	evaluable := func(t Atom) error {
		if src.Delete || t.Dim < 0 || env.Schema.Dims[t.Dim].CatLE(target[t.Dim], t.Cat) {
			return nil
		}
		return fmt.Errorf("spec: action %s: aggregates dimension %s to %s, above predicate category %s",
			name, env.Schema.Dims[t.Dim].Name(),
			env.Schema.Dims[t.Dim].Category(target[t.Dim]).Name,
			env.Schema.Dims[t.Dim].Category(t.Cat).Name)
	}
	disjuncts, err := CompileDNF("spec: action "+name, src.Pred, env, evaluable)
	if err != nil {
		return nil, err
	}
	a := &Action{name: name, src: src, env: env, target: target, isDelete: src.Delete,
		disjuncts: disjuncts, usesNow: expr.UsesNow(src.Pred)}
	a.growing = a.classifyGrowing()
	return a, nil
}

// MustCompileString parses and compiles a concrete-syntax action,
// panicking on error; intended for tests and example setup with constant
// inputs.
func MustCompileString(name, src string, env *Env) *Action {
	parsed, err := expr.ParseAction(src)
	if err != nil {
		panic(err)
	}
	a, err := Compile(name, parsed, env)
	if err != nil {
		panic(err)
	}
	return a
}

// CompileString parses and compiles a concrete-syntax action.
func CompileString(name, src string, env *Env) (*Action, error) {
	parsed, err := expr.ParseAction(src)
	if err != nil {
		return nil, fmt.Errorf("spec: action %s: %w", name, err)
	}
	return Compile(name, parsed, env)
}

// CompileDNF compiles a parsed predicate to disjunctive normal form
// over the environment: one []Atom per disjunct. who prefixes every
// error ("spec: action a1", "query"); admit, when non-nil, is the
// caller's own condition on each atom, checked as the atom is compiled.
func CompileDNF(who string, p expr.Pred, env *Env, admit func(Atom) error) ([][]Atom, error) {
	d, err := expr.ToDNF(p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", who, err)
	}
	var out [][]Atom
	for _, dj := range d.Disjuncts {
		atoms := make([]Atom, 0, len(dj))
		for _, atom := range dj {
			t, err := compileAtom(who, atom, env)
			if err == nil && admit != nil {
				err = admit(t)
			}
			if err != nil {
				return nil, err
			}
			atoms = append(atoms, t)
		}
		out = append(out, atoms)
	}
	return out, nil
}

func compileAtom(who string, atom expr.Pred, env *Env) (Atom, error) {
	resolve := func(ref expr.CatRef) (int, mdm.CategoryID, error) {
		di := env.Schema.DimIndex(ref.Dim)
		if di < 0 {
			return 0, 0, fmt.Errorf("%s: unknown dimension %q", who, ref.Dim)
		}
		c, ok := env.Schema.Dims[di].CategoryByName(ref.Cat)
		if !ok {
			return 0, 0, fmt.Errorf("%s: dimension %s has no category %q", who, ref.Dim, ref.Cat)
		}
		return di, c, nil
	}
	switch q := atom.(type) {
	case expr.TimeCmp:
		di, c, err := resolve(q.Ref)
		if err != nil {
			return Atom{}, err
		}
		u, err := timeUnit(who, q.Ref, di, c, env, []caltime.Expr{q.RHS})
		if err != nil {
			return Atom{}, err
		}
		return Atom{Dim: di, Cat: c, IsTime: true, Op: q.Op, Unit: u, TimeRHS: []caltime.Expr{q.RHS}}, nil
	case expr.TimeIn:
		di, c, err := resolve(q.Ref)
		if err != nil {
			return Atom{}, err
		}
		u, err := timeUnit(who, q.Ref, di, c, env, q.Set)
		if err != nil {
			return Atom{}, err
		}
		op := expr.OpIn
		if q.Negate {
			op = expr.OpNotIn
		}
		return Atom{Dim: di, Cat: c, IsTime: true, Op: op, Unit: u, TimeRHS: q.Set}, nil
	case expr.ValueCmp:
		di, c, err := resolve(q.Ref)
		if err != nil {
			return Atom{}, err
		}
		if di == env.TimeDim {
			return Atom{}, fmt.Errorf("%s: time category %s compared against value literal %q",
				who, q.Ref, q.RHS)
		}
		if q.Op != expr.OpEQ && q.Op != expr.OpNE && !env.Schema.Dims[di].Category(c).Ordered {
			return Atom{}, fmt.Errorf("%s: operator %s is not defined for unordered category %s",
				who, q.Op, q.Ref)
		}
		return Atom{Dim: di, Cat: c, Op: q.Op, ValRHS: []string{q.RHS}}, nil
	case expr.ValueIn:
		di, c, err := resolve(q.Ref)
		if err != nil {
			return Atom{}, err
		}
		if di == env.TimeDim {
			return Atom{}, fmt.Errorf("%s: time category %s tested against value literals", who, q.Ref)
		}
		op := expr.OpIn
		if q.Negate {
			op = expr.OpNotIn
		}
		return Atom{Dim: di, Cat: c, Op: op, ValRHS: q.Set}, nil
	case expr.Bool:
		if q.Value {
			return Atom{Dim: TestConstTrue}, nil
		}
		return Atom{Dim: TestConstFalse}, nil
	}
	return Atom{}, fmt.Errorf("%s: unsupported atom %T", who, atom)
}

func timeUnit(who string, ref expr.CatRef, di int, c mdm.CategoryID, env *Env, exprs []caltime.Expr) (caltime.Unit, error) {
	if di != env.TimeDim {
		return 0, fmt.Errorf("%s: time expression constrains non-time dimension %s", who, ref.Dim)
	}
	u, ok := env.unitOf(c)
	if !ok {
		return 0, fmt.Errorf("%s: category %s has no calendar unit", who, ref)
	}
	for _, e := range exprs {
		if bu, anchored := e.BaseUnit(); anchored && bu != u {
			return 0, fmt.Errorf("%s: literal %s has type %s, category %s requires %s",
				who, e, bu, ref, u)
		}
	}
	return u, nil
}

// Name returns the action's name within its specification.
func (a *Action) Name() string { return a.name }

// Source returns the parsed form the action was compiled from.
func (a *Action) Source() expr.ActionSpec { return a.src }

// Target returns Cat(a): the granularity the action aggregates to
// (Eq. 8). The caller must not modify the slice.
func (a *Action) Target() mdm.Granularity { return a.target }

// TargetIn returns Cat_i(a) (Eq. 7).
func (a *Action) TargetIn(dim int) mdm.CategoryID { return a.target[dim] }

// UsesNow reports whether the action is dynamic (references NOW).
func (a *Action) UsesNow() bool { return a.usesNow }

// IsDelete reports whether the action physically deletes the selected
// facts rather than aggregating them.
func (a *Action) IsDelete() bool { return a.isDelete }

// Growing reports whether the action is growing by itself: once a cell
// satisfies its predicate it always will (boundary categories A-E of
// Section 5.3). Fixed predicates are growing; a NOW-relative bound is
// growing only where it extends the selected window over time.
func (a *Action) Growing() bool { return a.growing }

func (a *Action) classifyGrowing() bool {
	if a.isDelete {
		// Deletion is its own irreversibility: cells escaping a shrunken
		// window were already physically removed, so no aggregation
		// level ever decreases. Deletion actions carry no Growing
		// obligation (they still serve as covers for others).
		return true
	}
	for _, d := range a.disjuncts {
		for _, t := range d {
			if !t.IsTime {
				continue
			}
			nowRel := false
			for _, e := range t.TimeRHS {
				if e.IsNowRelative() {
					nowRel = true
					break
				}
			}
			if !nowRel {
				continue
			}
			switch t.Op {
			case expr.OpLT, expr.OpLE:
				// Growing upper bound (categories B and D).
			default:
				// A NOW-relative lower bound (>, >=), equality or
				// membership moves cells out of the window over time:
				// categories F, G, H.
				return false
			}
		}
	}
	return true
}

// TimeHullAt returns a day-interval hull of the action's predicate with
// NOW bound to t (see TimeHull). The subcube engine uses this to skip
// cubes during synchronization.
func (a *Action) TimeHullAt(t caltime.Day) (lo, hi caltime.Day, bounded bool) {
	return TimeHull(a.disjuncts, t)
}

// TimeHull returns a day-interval hull of a DNF predicate with NOW bound
// to t: no cell whose time value lies entirely outside [lo, hi]
// satisfies the predicate at t, under any evaluation approach. bounded
// is false when some disjunct leaves time unconstrained, or when there
// is no disjunct at all (the constant false selects nothing anyway).
func TimeHull(disjuncts [][]Atom, t caltime.Day) (lo, hi caltime.Day, bounded bool) {
	const (
		minDay = caltime.Day(-1 << 60)
		maxDay = caltime.Day(1 << 60)
	)
	lo, hi = maxDay, minDay
	for _, d := range disjuncts {
		dLo, dHi := minDay, maxDay
		constrained := false
		for _, tst := range d {
			if !tst.IsTime {
				continue
			}
			// NE and NotIn exclude a region: no hull contribution.
			if tst.Op == expr.OpNE || tst.Op == expr.OpNotIn {
				continue
			}
			constrained = true
			if tst.Op == expr.OpIn {
				inLo, inHi := maxDay, minDay
				for _, e := range tst.TimeRHS {
					p := e.EvalPeriod(t, tst.Unit)
					inLo, inHi = min(inLo, p.First()), max(inHi, p.Last())
				}
				dLo, dHi = max(dLo, inLo), min(dHi, inHi)
				continue
			}
			p := tst.TimeRHS[0].EvalPeriod(t, tst.Unit)
			switch tst.Op {
			case expr.OpLT:
				dHi = min(dHi, p.First()-1)
			case expr.OpLE:
				dHi = min(dHi, p.Last())
			case expr.OpEQ:
				dLo, dHi = max(dLo, p.First()), min(dHi, p.Last())
			case expr.OpGE:
				dLo = max(dLo, p.First())
			case expr.OpGT:
				dLo = max(dLo, p.Last()+1)
			}
		}
		if !constrained {
			return 0, 0, false // this disjunct admits any time
		}
		lo, hi = min(lo, dLo), max(hi, dHi)
	}
	if len(disjuncts) == 0 {
		return 0, 0, false
	}
	return lo, hi, true
}

// NowUnits appends the calendar units of every NOW-relative time
// constraint in the action to dst; SignificantPeriod derives the
// "significant time period" of Section 7.2 from these.
func (a *Action) NowUnits(dst []caltime.Unit) []caltime.Unit {
	for _, d := range a.disjuncts {
		for _, t := range d {
			if !t.IsTime {
				continue
			}
			for _, e := range t.TimeRHS {
				if e.IsNowRelative() {
					dst = append(dst, t.Unit)
					break
				}
			}
		}
	}
	return dst
}

// SignificantPeriod derives the synchronization period of Section 7.2
// from the specification: the second-lowest calendar unit among its
// NOW-relative constraints (the lowest when only one unit occurs). ok is
// false when no action is NOW-relative, in which case time alone never
// un-synchronizes the cubes.
func (s *Spec) SignificantPeriod() (unit caltime.Unit, ok bool) {
	var units []caltime.Unit
	for _, a := range s.actions {
		units = a.NowUnits(units)
	}
	// Unit constants are ordered by period length: day < week < month <
	// quarter < year.
	slices.Sort(units)
	units = slices.Compact(units)
	switch len(units) {
	case 0:
		return 0, false
	case 1:
		return units[0], true
	}
	return units[1], true
}

// LessEq reports a1 <=_V a2 (Eq. 3): a2 aggregates at least as high in
// every dimension. Deletion actions sit strictly above every
// aggregation (and are mutually comparable).
func LessEq(a1, a2 *Action) bool {
	if a2.isDelete {
		return true
	}
	if a1.isDelete {
		return false
	}
	return a1.env.Schema.GranLE(a1.target, a2.target)
}

// SatisfiedBy evaluates the action's predicate on a cell at time t: the
// membership test of Pred(a, t) (Eq. 9), with NOW bound to t. The cell
// holds one value per dimension, at any granularity. A constraint at a
// category below the cell's granularity is evaluated conservatively
// (every populated descendant must satisfy it).
func (a *Action) SatisfiedBy(cell []mdm.ValueID, t caltime.Day) bool {
	for _, d := range a.disjuncts {
		if a.disjunctSatisfied(d, cell, t) {
			return true
		}
	}
	return false
}

func (a *Action) disjunctSatisfied(d []Atom, cell []mdm.ValueID, t caltime.Day) bool {
	for _, tst := range d {
		switch tst.Dim {
		case TestConstTrue:
			continue
		case TestConstFalse:
			return false
		}
		if !a.cellValueVerdict(tst, cell[tst.Dim], t) {
			return false
		}
	}
	return true
}

// cellValueVerdict evaluates one test on the cell's value for the
// test's dimension (onValue).
func (a *Action) cellValueVerdict(tst Atom, v mdm.ValueID, t caltime.Day) bool {
	dim := a.env.Schema.Dims[tst.Dim]
	return onValue(dim, tst.Cat, v, func(w mdm.ValueID) bool { return a.testValue(tst, dim, w, t) })
}

// onValue applies a test on category cat to value v: to v's ancestor at
// cat when one exists, otherwise conservatively to its populated
// descendants there (every descendant must pass, and there must be at
// least one).
func onValue(dim *mdm.Dimension, cat mdm.CategoryID, v mdm.ValueID, test func(mdm.ValueID) bool) bool {
	if anc := dim.AncestorAt(v, cat); anc != mdm.NoValue {
		return test(anc)
	}
	descendants := dim.DrillDown(v, cat)
	if len(descendants) == 0 {
		return false
	}
	for _, w := range descendants {
		if !test(w) {
			return false
		}
	}
	return true
}

func (a *Action) testValue(tst Atom, dim *mdm.Dimension, v mdm.ValueID, t caltime.Day) bool {
	if tst.IsTime {
		var buf [4]int64
		return timeHolds(tst.Op, dim.ValueOrd(v), timeBounds(buf[:0], tst, t))
	}
	return a.testPlainValue(tst, dim, v)
}

// timeBounds appends the period indexes a time test's right-hand side
// names with NOW bound to t: one per expression for in and not in, else
// the one expression's.
func timeBounds(dst []int64, tst Atom, t caltime.Day) []int64 {
	rhs := tst.TimeRHS
	if tst.Op != expr.OpIn && tst.Op != expr.OpNotIn {
		rhs = rhs[:1]
	}
	for _, e := range rhs {
		dst = append(dst, e.EvalPeriod(t, tst.Unit).Index)
	}
	return dst
}

// timeHolds reports whether the period with index idx satisfies a time
// test with operator op whose right-hand side resolved to bounds.
func timeHolds(op expr.Op, idx int64, bounds []int64) bool {
	switch op {
	case expr.OpIn:
		return slices.Contains(bounds, idx)
	case expr.OpNotIn:
		return !slices.Contains(bounds, idx)
	case expr.OpLT:
		return idx < bounds[0]
	case expr.OpLE:
		return idx <= bounds[0]
	case expr.OpEQ:
		return idx == bounds[0]
	case expr.OpNE:
		return idx != bounds[0]
	case expr.OpGE:
		return idx >= bounds[0]
	case expr.OpGT:
		return idx > bounds[0]
	}
	return false
}

// testPlainValue evaluates a non-time value test. It exists apart from
// testValue so that NOW-independent callers (leafSetFor) need not
// conjure an evaluation time they do not have.
func (a *Action) testPlainValue(tst Atom, dim *mdm.Dimension, v mdm.ValueID) bool {
	name := dim.ValueName(v)
	switch tst.Op {
	case expr.OpIn, expr.OpNotIn:
		found := false
		for _, s := range tst.ValRHS {
			if s == name {
				found = true
				break
			}
		}
		return found == (tst.Op == expr.OpIn)
	case expr.OpEQ:
		return name == tst.ValRHS[0]
	case expr.OpNE:
		return name != tst.ValRHS[0]
	}
	// Ordered comparison on a non-time category: compare by the
	// category's value order; an unknown operand satisfies nothing.
	rhs, ok := dim.ValueByName(tst.Cat, tst.ValRHS[0])
	if !ok {
		return false
	}
	lhs, rhsOrd := dim.ValueOrd(v), dim.ValueOrd(rhs)
	switch tst.Op {
	case expr.OpLT:
		return lhs < rhsOrd
	case expr.OpLE:
		return lhs <= rhsOrd
	case expr.OpGE:
		return lhs >= rhsOrd
	case expr.OpGT:
		return lhs > rhsOrd
	}
	return false
}

// --- Compiler views -------------------------------------------------
//
// The methods below expose the action's compiled DNF structure to the
// specexec bitset compiler without leaking the test representation: the
// compiler asks for each test's shape (dimension, time-ness, constant
// sentinels) and then materializes the per-value verdict — including
// the conservative descendant evaluation of SatisfiedBy — into bitsets
// over the dimension's value space.

// NumDisjuncts returns the number of DNF disjuncts of the predicate.
func (a *Action) NumDisjuncts() int { return len(a.disjuncts) }

// NumTests returns the number of compiled tests in disjunct i.
func (a *Action) NumTests(i int) int { return len(a.disjuncts[i]) }

// TestShape describes test j of disjunct i: the constrained dimension
// index (TestConstTrue / TestConstFalse for the constant sentinels) and
// whether the test is a time test (whose right-hand side may depend on
// NOW and must be re-resolved per evaluation day).
func (a *Action) TestShape(i, j int) (dim int, isTime bool) {
	tst := a.disjuncts[i][j]
	return tst.Dim, tst.IsTime
}

// PlainTestVerdict evaluates the non-time test j of disjunct i on a
// single dimension value v (of the test's dimension, at any category),
// with the conservative descendant evaluation of SatisfiedBy. It
// panics on time or constant tests — their verdicts depend on the
// evaluation day (TimeTestVerdict) or on nothing at all.
func (a *Action) PlainTestVerdict(i, j int, v mdm.ValueID) bool {
	tst := a.disjuncts[i][j]
	if tst.Dim < 0 || tst.IsTime {
		panic("spec: PlainTestVerdict on a time or constant test")
	}
	return a.cellValueVerdict(tst, v, 0) // a non-time test never reads the day
}

// TimeTestVerdict resolves the time test j of disjunct i with NOW bound
// to t and returns its verdict on a single dimension value, with the
// conservative descendant evaluation of SatisfiedBy. The right-hand side
// is evaluated once, here, so pinning the test over every value of the
// dimension pays its calendar arithmetic once. It panics on non-time
// tests.
func (a *Action) TimeTestVerdict(i, j int, t caltime.Day) func(v mdm.ValueID) bool {
	tst := a.disjuncts[i][j]
	if tst.Dim < 0 || !tst.IsTime {
		panic("spec: TimeTestVerdict on a non-time test")
	}
	dim := a.env.Schema.Dims[tst.Dim]
	bounds := timeBounds(nil, tst, t)
	holds := func(w mdm.ValueID) bool { return timeHolds(tst.Op, dim.ValueOrd(w), bounds) }
	return func(v mdm.ValueID) bool { return onValue(dim, tst.Cat, v, holds) }
}

// Regions materializes the action's DNF disjuncts as decision-procedure
// regions against the current dimension contents. Regions are built on
// demand because the value population (and hence leaf universes) grows
// over time.
func (a *Action) Regions() []prover.Region {
	out := make([]prover.Region, 0, len(a.disjuncts))
	for _, d := range a.disjuncts {
		out = append(out, a.regionOf(d))
	}
	return out
}

func (a *Action) regionOf(d []Atom) prover.Region {
	n := len(a.env.Schema.Dims)
	r := prover.Region{Dims: make([]prover.DimConstraint, n)}
	for i := range r.Dims {
		r.Dims[i].IsTime = i == a.env.TimeDim
	}
	for _, tst := range d {
		switch tst.Dim {
		case TestConstTrue:
			continue
		case TestConstFalse:
			r.False = true
			return r
		}
		if tst.IsTime {
			r.Dims[tst.Dim].Time = append(r.Dims[tst.Dim].Time, prover.TimeAtom{
				Unit: tst.Unit, Op: tst.Op, Exprs: tst.TimeRHS,
			})
			continue
		}
		dim := a.env.Schema.Dims[tst.Dim]
		leaf := a.leafSetFor(tst, dim)
		if r.Dims[tst.Dim].Fixed == nil {
			r.Dims[tst.Dim].Fixed = leaf
		} else {
			r.Dims[tst.Dim].Fixed.IntersectWith(leaf)
		}
	}
	return r
}

// leafSetFor materializes the bottom-category value set selected by a
// value test.
func (a *Action) leafSetFor(tst Atom, dim *mdm.Dimension) *prover.Set {
	bottom := dim.Bottom()
	leaves := dim.ValuesIn(bottom)
	// Size matches Env.Universes: an empty dimension has one phantom
	// leaf, which no value test selects.
	n := len(leaves)
	if n == 0 {
		n = 1
	}
	set := prover.NewSet(n)
	// Leaf index = position in the bottom category's insertion order.
	for idx, leaf := range leaves {
		anc := dim.AncestorAt(leaf, tst.Cat)
		if anc == mdm.NoValue {
			continue
		}
		if a.testPlainValue(tst, dim, anc) {
			set.Add(idx)
		}
	}
	return set
}

// String renders the action as "name: <concrete syntax>".
func (a *Action) String() string {
	return a.name + ": " + a.src.String()
}

// DescribeTargets renders Cat(a), e.g. "(Time.month, URL.domain)".
func (a *Action) DescribeTargets() string {
	return a.env.Schema.GranString(a.target)
}
