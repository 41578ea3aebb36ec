package query

import (
	"fmt"

	"dimred/internal/caltime"
	"dimred/internal/expr"
	"dimred/internal/mdm"
	"dimred/internal/spec"
)

// Predicate is a selection predicate compiled against a schema for
// evaluation on facts of any granularity, in DNF (negations are pushed
// onto atoms, which is required for the conservative and liberal
// approaches to stay sound under negation).
type Predicate struct {
	env       *spec.Env
	disjuncts [][]spec.Atom
	src       expr.Pred
}

// CompilePred compiles a parsed predicate against the environment. It
// shares the action predicates' atom compiler (one Pexp grammar); unlike
// them, query predicates may reference any category and are evaluated
// with the Definition 5 drill-down semantics.
func CompilePred(p expr.Pred, env *spec.Env) (*Predicate, error) {
	disjuncts, err := spec.CompileDNF("query", p, env, nil)
	if err != nil {
		return nil, err
	}
	return &Predicate{env: env, disjuncts: disjuncts, src: p}, nil
}

// ParsePred parses and compiles a concrete-syntax predicate.
func ParsePred(src string, env *spec.Env) (*Predicate, error) {
	p, err := expr.ParsePred(src)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	return CompilePred(p, env)
}

// MustParsePred panics on error; for constant predicates in tests and
// examples.
func MustParsePred(src string, env *spec.Env) *Predicate {
	p, err := ParsePred(src, env)
	if err != nil {
		panic(err)
	}
	return p
}

// EvaluateFact evaluates the predicate on fact f of mo at query time t
// (binding NOW). It returns the conservative and liberal verdicts and
// the weighted certainty.
func (p *Predicate) EvaluateFact(mo *mdm.MO, f mdm.FactID, t caltime.Day) (cons, lib bool, weight float64) {
	return p.EvaluateCell(mo.Refs(f), t)
}

// EvaluateCell evaluates the predicate on a cell, one value per
// dimension, at query time t. For evaluation over many facts at the
// same t, Prepare amortizes the right-hand-side resolution.
func (p *Predicate) EvaluateCell(cell []mdm.ValueID, t caltime.Day) (cons, lib bool, weight float64) {
	return p.Prepare(t).EvaluateCell(cell)
}

// Prepared is a predicate bound to a query time: the right-hand sides of
// every atom are resolved once, and so is each atom's verdict on every
// dimension value it meets — Definition 5 compares a fact with an atom
// through the fact's value in the atom's dimension alone, so facts that
// share the value share the verdict. A Prepared lazily caches comparand
// sets and verdicts and is NOT safe for concurrent use — Prepare is
// cheap, so each goroutine prepares its own instance (as the subcube
// evaluator does).
type Prepared struct {
	p *Predicate
	t caltime.Day
	// rhs[d][i] caches the comparand ordinals of disjunct d's atom i,
	// keyed by the GLB category the comparison lands on (the fact side
	// determines the GLB, so a small per-category map is needed).
	rhs [][]map[mdm.CategoryID]ordSet
	// seen[d][i] remembers atom i of disjunct d's verdict per value.
	seen [][]map[mdm.ValueID]verdict
}

// verdict is one atom's answer on one dimension value: the conservative
// and liberal verdicts and the weighted certainty.
type verdict struct {
	cons, lib bool
	weight    float64
}

// Prepare binds the predicate to a query time.
func (p *Predicate) Prepare(t caltime.Day) *Prepared {
	pr := &Prepared{
		p: p, t: t,
		rhs:  make([][]map[mdm.CategoryID]ordSet, len(p.disjuncts)),
		seen: make([][]map[mdm.ValueID]verdict, len(p.disjuncts)),
	}
	for d := range p.disjuncts {
		pr.rhs[d] = make([]map[mdm.CategoryID]ordSet, len(p.disjuncts[d]))
		pr.seen[d] = make([]map[mdm.ValueID]verdict, len(p.disjuncts[d]))
	}
	return pr
}

// EvaluateCell evaluates the prepared predicate on a cell.
func (pr *Prepared) EvaluateCell(cell []mdm.ValueID) (cons, lib bool, weight float64) {
	for d, dj := range pr.p.disjuncts {
		c, l, w := pr.evalDisjunct(d, dj, cell)
		cons = cons || c
		lib = lib || l
		if w > weight {
			weight = w
		}
	}
	return cons, lib, weight
}

func (pr *Prepared) evalDisjunct(d int, dj []spec.Atom, cell []mdm.ValueID) (cons, lib bool, weight float64) {
	cons, lib, weight = true, true, 1
	for i := range dj {
		c, l, w := pr.evalTest(d, i, cell)
		cons = cons && c
		lib = lib && l
		weight *= w
		if !lib {
			return false, false, 0
		}
	}
	return cons, lib, weight
}

// evalTest answers atom i of disjunct d on the cell from the verdict
// remembered for the cell's value, comparing only on a value's first
// appearance.
func (pr *Prepared) evalTest(d, i int, cell []mdm.ValueID) (cons, lib bool, weight float64) {
	tst := &pr.p.disjuncts[d][i]
	switch tst.Dim {
	case spec.TestConstTrue:
		return true, true, 1
	case spec.TestConstFalse:
		return false, false, 0
	}
	v := cell[tst.Dim]
	seen := pr.seen[d][i]
	if seen == nil {
		seen = make(map[mdm.ValueID]verdict)
		pr.seen[d][i] = seen
	}
	r, ok := seen[v]
	if !ok {
		r.cons, r.lib, r.weight = pr.compare(d, i, tst, v)
		seen[v] = r
	}
	return r.cons, r.lib, r.weight
}

// compare evaluates atom i of disjunct d on dimension value v.
func (pr *Prepared) compare(d, i int, tst *spec.Atom, v mdm.ValueID) (cons, lib bool, weight float64) {
	dim := pr.p.env.Schema.Dims[tst.Dim]

	// Lift the fact's value to the predicate category when possible
	// (f ~> v evaluation); otherwise Definition 5 drills both sides to
	// the GLB category.
	lhs := v
	if a := dim.AncestorAt(v, tst.Cat); a != mdm.NoValue {
		lhs = a
	}
	glb := dim.GLB(dim.CategoryOf(lhs), tst.Cat)
	ordered := dim.Category(glb).Ordered

	las := drillOrds(dim, lhs, glb, ordered)
	if len(las) == 0 {
		return false, false, 0
	}
	rbs := pr.rhsFor(d, i, *tst, dim, glb, ordered)
	if len(rbs) == 0 {
		// Unknown comparands: equality-style tests fail, inequality-style
		// negations hold liberally. Keep it simple and sound: nothing is
		// known to satisfy, nothing might.
		return false, false, 0
	}
	return compareSets(tst.Op, las, rbs)
}

// rhsFor returns the cached comparand set of atom (d, i) at GLB category
// glb, resolving it on first use.
func (pr *Prepared) rhsFor(d, i int, tst spec.Atom, dim *mdm.Dimension, glb mdm.CategoryID, ordered bool) ordSet {
	byCat := pr.rhs[d][i]
	if byCat == nil {
		byCat = make(map[mdm.CategoryID]ordSet, 2)
		pr.rhs[d][i] = byCat
	}
	if cached, ok := byCat[glb]; ok {
		return cached
	}
	rbs := pr.p.rhsOrds(tst, dim, glb, ordered, pr.t)
	byCat[glb] = rbs
	return rbs
}

// rhsOrds materializes the right-hand side's drill-down ordinals at the
// GLB category.
func (p *Predicate) rhsOrds(tst spec.Atom, d *mdm.Dimension, glb mdm.CategoryID, ordered bool, t caltime.Day) ordSet {
	var out ordSet
	if tst.IsTime {
		glbUnit, ok := p.env.Time.UnitForCategory(glb)
		if !ok {
			return nil
		}
		for _, e := range tst.TimeRHS {
			period := e.EvalPeriod(t, tst.Unit)
			// Prefer the populated value's drill-down; fall back to the
			// calendar range of the period at the GLB unit.
			if v, okv := d.ValueByName(tst.Cat, period.String()); okv {
				out = append(out, drillOrds(d, v, glb, ordered)...)
				continue
			}
			lo := caltime.PeriodOf(period.First(), glbUnit).Index
			hi := caltime.PeriodOf(period.Last(), glbUnit).Index
			for x := lo; x <= hi; x++ {
				out = append(out, x)
			}
		}
	} else {
		for _, name := range tst.ValRHS {
			v, ok := d.ValueByName(tst.Cat, name)
			if !ok {
				continue
			}
			out = append(out, drillOrds(d, v, glb, ordered)...)
		}
	}
	sortOrds(out)
	// De-duplicate (set members may share drill-down values).
	dedup := out[:0]
	for i, x := range out {
		if i == 0 || x != out[i-1] {
			dedup = append(dedup, x)
		}
	}
	return dedup
}

// String renders the predicate's source form.
func (p *Predicate) String() string { return p.src.String() }

// TimeBounds returns a day-interval hull of the predicate at query time
// t: no fact whose time value lies entirely outside [lo, hi] can satisfy
// the predicate, under any approach. bounded is false when the predicate
// does not constrain time (or some disjunct doesn't). Storage engines
// use this as a zone map to skip partitions.
func (p *Predicate) TimeBounds(t caltime.Day) (lo, hi caltime.Day, bounded bool) {
	return spec.TimeHull(p.disjuncts, t)
}

// DecidedAt reports whether granularity g decides the predicate: every
// atom tests, in its dimension, a category that g's category rolls up to
// (constant atoms and NOW-relative time atoms included). A fact then gets,
// under every approach, the verdict of its availability roll-up to g, so
// selection commutes with that roll-up — law L1, which
// TestSelectionCommutesWithRollUp states. One exception: an = or !=
// atom compares drill-down sets for equality, so a fact at a category
// beside the atom's (a week under a month atom), which availability may
// roll into a single value at g, would change its verdict; such an atom
// is decided only when its category is comparable with every category
// of its dimension.
func (p *Predicate) DecidedAt(g mdm.Granularity) bool {
	for _, dj := range p.disjuncts {
		for _, a := range dj {
			if a.Dim < 0 {
				continue
			}
			d := p.env.Schema.Dims[a.Dim]
			if !d.CatLE(g[a.Dim], a.Cat) {
				return false
			}
			if a.Op != expr.OpEQ && a.Op != expr.OpNE {
				continue
			}
			for c := range d.NumCategories() {
				if !d.CatComparable(mdm.CategoryID(c), a.Cat) {
					return false
				}
			}
		}
	}
	return true
}

// Selector is selection under one approach (Definition 5), bound to a
// predicate and a query time, answering one cell at a time. Like the
// Prepared it embeds, it is NOT safe for concurrent use: each goroutine
// binds its own.
type Selector struct {
	Prepared
	approach Approach
	// Weights holds the certainty of each cell Keep kept, in the order
	// kept, under the weighted approach; it stays nil under the others.
	Weights []float64
}

// Selector binds the predicate to query time t under approach.
func (p *Predicate) Selector(t caltime.Day, approach Approach) *Selector {
	return &Selector{Prepared: *p.Prepare(t), approach: approach}
}

// Keep reports whether the approach selects a fact at cell: one that
// surely satisfies the predicate (conservative), or that might
// (liberal, and weighted when its certainty is positive). Under the
// weighted approach it appends each kept cell's certainty to Weights.
func (s *Selector) Keep(cell []mdm.ValueID) bool {
	cons, lib, w := s.EvaluateCell(cell)
	switch s.approach {
	case Liberal:
		return lib
	case Weighted:
		if lib && w > 0 {
			s.Weights = append(s.Weights, w)
			return true
		}
		return false
	}
	return cons
}

// Select is the selection operator σ[p](O) (Eq. 36) under the
// conservative or liberal approach, evaluated at query time t (binding
// NOW in the predicate). The result MO has the same schema and
// dimensions; facts are restricted to those selected. The weighted
// approach is not expressible as a plain fact subset — its result is
// only meaningful together with the per-fact certainty weights — so
// passing Weighted is an error: call SelectWeighted and fold the pair
// with AggregateWeighted instead.
func Select(mo *mdm.MO, p *Predicate, t caltime.Day, approach Approach) (*mdm.MO, error) {
	if approach == Weighted {
		return nil, fmt.Errorf("query: Select: the weighted approach needs per-fact certainty weights; use SelectWeighted with AggregateWeighted")
	}
	out, err := Filter(mo, p.Selector(t, approach))
	if err != nil {
		return nil, fmt.Errorf("query: Select: %w", err)
	}
	return out, nil
}

// SelectWeighted is selection under the weighted approach: facts that
// might satisfy the predicate, each with its certainty weight, aligned
// with the result MO's fact ids.
func SelectWeighted(mo *mdm.MO, p *Predicate, t caltime.Day) (*mdm.MO, []float64, error) {
	sel := p.Selector(t, Weighted)
	out, err := Filter(mo, sel)
	if err != nil {
		return nil, nil, fmt.Errorf("query: SelectWeighted: %w", err)
	}
	return out, sel.Weights, nil
}

// Filter copies the facts of mo that sel keeps into a new MO, names and
// base counts included; under the weighted approach sel.Weights then
// aligns with the result's fact ids.
func Filter(mo *mdm.MO, sel *Selector) (*mdm.MO, error) {
	out := mdm.NewMO(mo.Schema())
	out.SetFloors(mo.Floors())
	var cell []mdm.ValueID
	for f := 0; f < mo.Len(); f++ {
		fid := mdm.FactID(f)
		cell = cell[:0]
		for i := 0; i < mo.Schema().NumDims(); i++ {
			cell = append(cell, mo.Ref(fid, i))
		}
		if !sel.Keep(cell) {
			continue
		}
		if _, err := out.AddFactAt(cell, mo.Measures(fid), mo.BaseCount(fid), mo.Name(fid)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
