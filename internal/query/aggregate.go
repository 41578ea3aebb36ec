package query

import (
	"fmt"
	"strconv"

	"dimred/internal/mdm"
)

// AggApproach selects how aggregate formation treats facts whose
// granularity is already above the requested level (Section 6.3).
type AggApproach int

const (
	// Availability returns each fact at the finest available granularity
	// at or above the requested one — the paper's default ("the most
	// detailed answer that is still guaranteed to be correct").
	Availability AggApproach = iota
	// Strict considers only facts at or below the requested granularity.
	Strict
	// LUB aggregates everything to the finest common granularity that is
	// at or above the requested one and available for all facts.
	LUB
	// Disaggregated forces the requested granularity, splitting coarse
	// SUM measures evenly over their populated drill-down cells
	// (imprecise, as the paper notes, citing Dyreson).
	Disaggregated
)

var aggApproachNames = [...]string{"availability", "strict", "LUB", "disaggregated"}

// String returns the approach name.
func (a AggApproach) String() string {
	if a < Availability || a > Disaggregated {
		return fmt.Sprintf("AggApproach(%d)", int(a))
	}
	return aggApproachNames[a]
}

// Project is the projection operator π (Eq. 37): it retains the named
// dimensions and measures. The fact set is unchanged — duplicates are
// not removed, as in regular star schemas.
func Project(mo *mdm.MO, dimNames, measureNames []string) (*mdm.MO, error) {
	schema := mo.Schema()
	var dims []*mdm.Dimension
	var dimIdx []int
	for _, n := range dimNames {
		i := schema.DimIndex(n)
		if i < 0 {
			return nil, fmt.Errorf("query: Project: unknown dimension %q", n)
		}
		dims = append(dims, schema.Dims[i])
		dimIdx = append(dimIdx, i)
	}
	var meas []mdm.Measure
	var measIdx []int
	for _, n := range measureNames {
		j := schema.MeasureIndex(n)
		if j < 0 {
			return nil, fmt.Errorf("query: Project: unknown measure %q", n)
		}
		meas = append(meas, schema.Measures[j])
		measIdx = append(measIdx, j)
	}
	outSchema, err := mdm.NewSchema(schema.FactType, dims, meas)
	if err != nil {
		return nil, fmt.Errorf("query: Project: %w", err)
	}
	out := mdm.NewMO(outSchema)
	floors, in := make(mdm.Granularity, len(dimIdx)), mo.Floors()
	for k, i := range dimIdx {
		floors[k] = in[i]
	}
	out.SetFloors(floors)
	for f := 0; f < mo.Len(); f++ {
		fid := mdm.FactID(f)
		refs := make([]mdm.ValueID, len(dimIdx))
		for k, i := range dimIdx {
			refs[k] = mo.Ref(fid, i)
		}
		ms := make([]float64, len(measIdx))
		for k, j := range measIdx {
			ms[k] = mo.Measure(fid, j)
		}
		if _, err := out.AddFactAt(refs, ms, mo.BaseCount(fid), mo.Name(fid)); err != nil {
			return nil, fmt.Errorf("query: Project: %w", err)
		}
	}
	return out, nil
}

// GroupHigh implements Group_high (Eq. 38): the facts characterized by
// every value of the cell, where values above the requested granularity
// must additionally be mapped to directly (so a fact is aggregated into
// exactly one group).
func GroupHigh(mo *mdm.MO, cell []mdm.ValueID, target mdm.Granularity) []mdm.FactID {
	schema := mo.Schema()
	var out []mdm.FactID
	for f := 0; f < mo.Len(); f++ {
		fid := mdm.FactID(f)
		match := true
		for i, d := range schema.Dims {
			vc := d.CategoryOf(cell[i])
			if d.CatLE(vc, target[i]) && vc != target[i] {
				match = false // cell below the requested granularity
				break
			}
			if vc == target[i] {
				if !mo.CharacterizedBy(fid, i, cell[i]) {
					match = false
					break
				}
			} else {
				// Higher than requested: direct mapping required.
				if mo.Ref(fid, i) != cell[i] {
					match = false
					break
				}
			}
		}
		if match {
			out = append(out, fid)
		}
	}
	return out
}

// Aggregate is the aggregate formation operator α[C1,...,Cn](O)
// (Definition 6) at the requested granularity under the given approach.
// Each result fact's measures are folded with the measures' default
// aggregate functions. The result MO keeps the schema and dimensions;
// its insert floors are raised to the result granularity (the formal
// definition restricts the schema to a subdimension, which
// mdm.Dimension.Subdimension materializes for callers that need it).
func Aggregate(mo *mdm.MO, target mdm.Granularity, approach AggApproach) (*mdm.MO, error) {
	schema := mo.Schema()
	if len(target) != len(schema.Dims) {
		return nil, fmt.Errorf("query: Aggregate: granularity needs %d categories", len(schema.Dims))
	}
	switch approach {
	case Availability, Strict, LUB, Disaggregated:
	default:
		return nil, fmt.Errorf("query: Aggregate: unknown approach %d", approach)
	}

	effTarget := target
	if approach == LUB {
		// Finest common granularity >= target available for all facts.
		eff := append(mdm.Granularity(nil), target...)
		for f := 0; f < mo.Len(); f++ {
			g := mo.Gran(mdm.FactID(f))
			for i, d := range schema.Dims {
				if !d.CatLE(g[i], eff[i]) {
					// Raise eff[i] to an upper bound of both. For the
					// category orders in this model the least upper
					// bound is the lowest category above both.
					eff[i] = leastUpper(d, eff[i], g[i])
				}
			}
		}
		effTarget = eff
	}

	type group struct {
		cell    []mdm.ValueID
		meas    []float64
		base    int64
		sources []string
	}
	// groups is in first-seen order, which is the result's fact order;
	// held finds a cell's group in it.
	var groups []*group
	held := mdm.NewCellMap[int](len(schema.Dims))

	addTo := func(cell []mdm.ValueID, fid mdm.FactID, scale float64) {
		at, ok := held.Get(cell)
		if !ok {
			g := &group{cell: append([]mdm.ValueID(nil), cell...), meas: make([]float64, len(schema.Measures))}
			for j := range schema.Measures {
				g.meas[j] = scaledInit(schema.Measures[j].Agg, mo, fid, j, scale)
			}
			g.base = mo.BaseCount(fid)
			g.sources = append(g.sources, mo.Name(fid))
			held.Put(cell, len(groups))
			groups = append(groups, g)
			return
		}
		g := groups[at]
		for j := range schema.Measures {
			agg := schema.Measures[j].Agg
			g.meas[j] = agg.Merge(g.meas[j], scaledInit(agg, mo, fid, j, scale))
		}
		g.base += mo.BaseCount(fid)
		g.sources = append(g.sources, mo.Name(fid))
	}

	// A value's roll-up to the target does not depend on the fact that
	// carries it: resolve it once per (dimension, value). The memo lives
	// for this call only — dimensions grow, so one kept on the dimension
	// would need invalidating — and costs nothing until a fact above or
	// beside the target turns up.
	type rollUp struct {
		to mdm.ValueID
		ok bool
	}
	var rolled []map[mdm.ValueID]rollUp

	for f := 0; f < mo.Len(); f++ {
		fid := mdm.FactID(f)
		gran := mo.Gran(fid)
		cell := make([]mdm.ValueID, len(schema.Dims))
		above := false // some dimension is above the requested level
		ok := true
		for i, d := range schema.Dims {
			switch {
			case d.CatLE(gran[i], effTarget[i]):
				cell[i] = d.AncestorAt(mo.Ref(fid, i), effTarget[i])
				if cell[i] == mdm.NoValue {
					ok = false
				}
			default:
				// The category is above or parallel to the requested one.
				// Figure 8's evaluation rolls a week-granularity fact up
				// to the month level because all its populated days lie
				// in one month: when the drill-down reaches a unique
				// ancestor at the requested category, the roll-up is
				// unambiguous and the fact attains the requested
				// granularity; otherwise it keeps its own value
				// (availability semantics).
				v := mo.Ref(fid, i)
				if rolled == nil {
					rolled = make([]map[mdm.ValueID]rollUp, len(schema.Dims))
				}
				r, seen := rolled[i][v]
				if !seen {
					r.to, r.ok = unambiguousRollUp(d, v, effTarget[i])
					if rolled[i] == nil {
						rolled[i] = make(map[mdm.ValueID]rollUp)
					}
					rolled[i][v] = r
				}
				if r.ok {
					cell[i] = r.to
					continue
				}
				above = true
				cell[i] = v
			}
		}
		if !ok {
			return nil, fmt.Errorf("query: Aggregate: fact %s has no ancestor at the requested granularity", mo.Name(fid))
		}
		switch approach {
		case Strict:
			if above {
				continue // drop facts coarser than requested
			}
			addTo(cell, fid, 1)
		case Availability, LUB:
			// LUB's effTarget dominates every fact, so above is false.
			addTo(cell, fid, 1)
		case Disaggregated:
			if !above {
				addTo(cell, fid, 1)
				continue
			}
			disaggregate(mo, fid, cell, effTarget, addTo)
		}
	}

	out := mdm.NewMO(schema)
	out.SetFloors(effTarget)
	for _, g := range groups {
		if _, err := out.AddFactAt(g.cell, g.meas, g.base, mdm.MergedName(g.sources)); err != nil {
			return nil, fmt.Errorf("query: Aggregate: %w", err)
		}
	}
	return out, nil
}

// Combine is the final distributive aggregation of Section 7.3: parts are
// the results Aggregate gave, for one target and approach, on disjoint
// parts of a fact set (nil and empty parts contribute nothing), and the
// result is what Aggregate would give on their union. Every part is
// already grouped at its floors, and roll-up∘roll-up = roll-up, so
// aggregating the union a second time would map each fact onto its own
// cell: a single non-empty part is the answer as it stands, and several
// are merged by cell key in part order — a cell split across parts
// (fact_45 + fact_9 → fact_459 in Figure 8) folds into the fact that
// first held it, COUNT from the base counts. Two cases re-aggregate in
// earnest and are kept on Aggregate: LUB parts whose effective targets
// differ (each part raised its target over its own facts only), and,
// for a lone Disaggregated part, a COUNT measure, whose shares the
// second fold has always replaced by whole base counts.
//
// Result facts are named as that second aggregation named them, by their
// position among the parts' facts ("fact_7"; a split cell merges its
// sources' names), not by the parts' own names: those spell out every
// row a cell folded, kilobytes that a view built from the result would
// retain and every later fold over it would sort and join again. Combine
// owns the parts it is given and renames a lone one in place.
func Combine(schema *mdm.Schema, parts []*mdm.MO, target mdm.Granularity, approach AggApproach) (*mdm.MO, error) {
	live := make([]*mdm.MO, 0, len(parts))
	for _, p := range parts {
		if p != nil && p.Len() > 0 {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		out := mdm.NewMO(schema)
		out.SetFloors(append(mdm.Granularity(nil), target...))
		return out, nil
	}
	if len(live) == 1 {
		if approach == Disaggregated && hasCount(schema) {
			return aggregateUnion(schema, live, target, approach)
		}
		for f, name := range positionNames(live[0].Len()) {
			live[0].SetName(mdm.FactID(f), name)
		}
		return live[0], nil
	}
	floors := live[0].Floors()
	if approach == LUB {
		for _, p := range live[1:] {
			if !schema.GranEq(p.Floors(), floors) {
				return aggregateUnion(schema, live, target, approach)
			}
		}
	}

	out := mdm.NewMO(schema)
	out.SetFloors(floors)
	held := mdm.NewCellMap[mdm.FactID](len(schema.Dims))
	// sources[f] lists the names folded into result fact f once a second
	// part contributes to it.
	var sources [][]string
	cell := make([]mdm.ValueID, len(schema.Dims))
	meas := make([]float64, len(schema.Measures))
	facts := 0
	for _, p := range live {
		facts += p.Len()
	}
	names := positionNames(facts)
	seen := 0 // facts of earlier parts
	for _, p := range live {
		for f := 0; f < p.Len(); f++ {
			fid := mdm.FactID(f)
			for i := range cell {
				cell[i] = p.Ref(fid, i)
			}
			for j, m := range schema.Measures {
				meas[j] = scaledInit(m.Agg, p, fid, j, 1)
			}
			at, ok := held.Get(cell)
			if !ok {
				added, err := out.AddFactAt(cell, meas, p.BaseCount(fid), names[seen+f])
				if err != nil {
					return nil, fmt.Errorf("query: Combine: %w", err)
				}
				held.Put(cell, added)
				sources = append(sources, nil)
				continue
			}
			for j, m := range schema.Measures {
				out.SetMeasure(at, j, m.Agg.Merge(out.Measure(at, j), meas[j]))
			}
			out.AddBaseCount(at, p.BaseCount(fid))
			if sources[at] == nil {
				sources[at] = append(sources[at], out.Name(at))
			}
			sources[at] = append(sources[at], names[seen+f])
		}
		seen += p.Len()
	}
	for f, folded := range sources {
		if folded != nil {
			out.SetName(mdm.FactID(f), mdm.MergedName(folded))
		}
	}
	return out, nil
}

// positionNames returns "fact_0" … "fact_<n-1>", cut from one string so
// that naming a result costs a handful of allocations, not one per fact.
func positionNames(n int) []string {
	var buf []byte
	ends := make([]int, n)
	for i := range ends {
		buf = strconv.AppendInt(append(buf, "fact_"...), int64(i), 10)
		ends[i] = len(buf)
	}
	all := string(buf)
	names := make([]string, n)
	start := 0
	for i, end := range ends {
		names[i] = all[start:end]
		start = end
	}
	return names
}

// aggregateUnion is Combine by definition: the parts' facts in one MO,
// aggregated again.
func aggregateUnion(schema *mdm.Schema, parts []*mdm.MO, target mdm.Granularity, approach AggApproach) (*mdm.MO, error) {
	union := mdm.NewMO(schema)
	for _, p := range parts {
		for f := 0; f < p.Len(); f++ {
			fid := mdm.FactID(f)
			if _, err := union.AddFactAt(p.Refs(fid), p.Measures(fid), p.BaseCount(fid), ""); err != nil {
				return nil, fmt.Errorf("query: Combine: %w", err)
			}
		}
	}
	return Aggregate(union, target, approach)
}

func hasCount(schema *mdm.Schema) bool {
	for _, m := range schema.Measures {
		if m.Agg == mdm.AggCount {
			return true
		}
	}
	return false
}

// AggregateWeighted folds a weighted selection result (from
// SelectWeighted) to the target granularity: each fact's SUM and COUNT
// contributions are scaled by its certainty weight, yielding expected
// values under the weighted approach of Section 6.1. MIN/MAX measures
// are aggregated unscaled (extrema have no meaningful expectation under
// even weighting). weights must align with mo's fact ids.
func AggregateWeighted(mo *mdm.MO, weights []float64, target mdm.Granularity, approach AggApproach) (*mdm.MO, error) {
	if len(weights) != mo.Len() {
		return nil, fmt.Errorf("query: AggregateWeighted: %d weights for %d facts", len(weights), mo.Len())
	}
	// COUNT cannot be pre-scaled through BaseCount (integral), so COUNT
	// measures lose fractional weighting here; the conservative and
	// liberal approaches bound the exact answer.
	scaled := mo.Clone()
	ScaleSums(scaled, weights)
	return Aggregate(scaled, target, approach)
}

// ScaleSums multiplies, in place, each fact's SUM measures by its
// certainty weight, which turns a weighted selection into the expected
// values Aggregate then folds. weights must align with mo's fact ids.
func ScaleSums(mo *mdm.MO, weights []float64) {
	for j, m := range mo.Schema().Measures {
		if m.Agg != mdm.AggSum {
			continue
		}
		for f, w := range weights {
			mo.SetMeasure(mdm.FactID(f), j, mo.Measure(mdm.FactID(f), j)*w)
		}
	}
}

// scaledInit lifts a base measure into the aggregate domain, scaling SUM
// and COUNT measures for disaggregation shares.
func scaledInit(agg mdm.AggKind, mo *mdm.MO, fid mdm.FactID, j int, scale float64) float64 {
	switch agg {
	case mdm.AggCount:
		return float64(mo.BaseCount(fid)) * scale
	case mdm.AggSum:
		return mo.Measure(fid, j) * scale
	default:
		// MIN/MAX replicate: disaggregation cannot split extrema.
		return mo.Measure(fid, j)
	}
}

// disaggregate splits a coarse fact evenly over the populated drill-down
// cells below it, per dimension, multiplying the shares across
// dimensions.
func disaggregate(mo *mdm.MO, fid mdm.FactID, cell []mdm.ValueID, target mdm.Granularity, addTo func([]mdm.ValueID, mdm.FactID, float64)) {
	schema := mo.Schema()
	// Collect per-dimension candidate lists at the target granularity.
	choices := make([][]mdm.ValueID, len(cell))
	total := 1
	for i, d := range schema.Dims {
		if d.CatLE(d.CategoryOf(cell[i]), target[i]) {
			choices[i] = []mdm.ValueID{cell[i]}
			continue
		}
		dd := d.DrillDown(cell[i], target[i])
		if len(dd) == 0 {
			return // nothing populated below: the fact cannot be placed
		}
		choices[i] = dd
		total *= len(dd)
	}
	share := 1 / float64(total)
	// Enumerate the cross product.
	idx := make([]int, len(choices))
	sub := make([]mdm.ValueID, len(choices))
	for {
		for i := range choices {
			sub[i] = choices[i][idx[i]]
		}
		addTo(sub, fid, share)
		carry := len(choices) - 1
		for carry >= 0 {
			idx[carry]++
			if idx[carry] < len(choices[carry]) {
				break
			}
			idx[carry] = 0
			carry--
		}
		if carry < 0 {
			break
		}
	}
}

// unambiguousRollUp maps a value whose category is not below cat onto
// its unique ancestor-through-leaves at cat, when one exists: all
// populated descendants at the GLB category must share the same ancestor
// at cat.
func unambiguousRollUp(d *mdm.Dimension, v mdm.ValueID, cat mdm.CategoryID) (mdm.ValueID, bool) {
	glb := d.GLB(d.CategoryOf(v), cat)
	dd := d.DrillDown(v, glb)
	if len(dd) == 0 {
		return mdm.NoValue, false
	}
	first := d.AncestorAt(dd[0], cat)
	if first == mdm.NoValue {
		return mdm.NoValue, false
	}
	for _, w := range dd[1:] {
		if d.AncestorAt(w, cat) != first {
			return mdm.NoValue, false
		}
	}
	return first, true
}

// leastUpper returns the lowest category above both a and b.
func leastUpper(d *mdm.Dimension, a, b mdm.CategoryID) mdm.CategoryID {
	best := d.Top()
	for c := 0; c < d.NumCategories(); c++ {
		cid := mdm.CategoryID(c)
		if d.CatLE(a, cid) && d.CatLE(b, cid) && d.CatLE(cid, best) {
			best = cid
		}
	}
	return best
}
