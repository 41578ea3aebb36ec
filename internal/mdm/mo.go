package mdm

import (
	"fmt"
	"sort"
	"strings"
)

// FactID identifies a fact within one MO.
type FactID int32

// MO is a multidimensional object O = (S, F, D, R, M): a schema, a set of
// facts, dimensions, fact-dimension relations, and measure values. Facts
// are stored columnar: refs[i][f] is the dimension value fact f maps to
// directly in dimension i (the relation R_i), and meas[j][f] is the value
// of measure j.
//
// The paper requires user-inserted facts to map to bottom-category
// values; facts created by reduction or aggregation may map to values of
// any category. The floors field records the insert granularity, which
// aggregate formation lowers to the result granularity (the result MO's
// dimensions are subdimensions per Definition 6).
//
// An MO made by Borrow reads another MO's columns until its first write;
// every mutator calls own first, which gives it columns of its own.
type MO struct {
	// Shared by Clone: dimensions are immutable once populated for an
	// analysis.
	schema *Schema
	refs   [][]ValueID
	meas   [][]float64
	// baseCount[f] is the number of user-inserted facts aggregated into f
	// (1 for user-inserted facts). It feeds provenance reporting and the
	// COUNT aggregate.
	baseCount []int64
	// names[f] is an optional display label ("fact_03"); empty entries
	// render as "fact_<id>".
	names  []string
	floors Granularity
	// borrowed marks columns that belong to the MO Borrow was called on.
	borrowed bool
}

// NewMO creates an empty MO over the schema, accepting user inserts at
// the bottom granularity.
func NewMO(s *Schema) *MO {
	m := &MO{
		schema: s,
		refs:   make([][]ValueID, len(s.Dims)),
		meas:   make([][]float64, len(s.Measures)),
		floors: s.BottomGranularity(),
	}
	return m
}

// Schema returns the MO's fact schema.
func (m *MO) Schema() *Schema { return m.schema }

// Len returns the number of facts.
func (m *MO) Len() int {
	if len(m.refs) == 0 {
		return 0
	}
	return len(m.refs[0])
}

// Floors returns the granularity at which AddFact accepts facts: the
// bottom granularity for a base MO, the result granularity for an MO
// produced by aggregate formation.
func (m *MO) Floors() Granularity { return m.floors }

// SetFloors overrides the insert granularity; used by the query algebra
// when building result MOs over subdimensions.
func (m *MO) SetFloors(g Granularity) { m.floors = g }

// AddFact inserts a user fact: refs must be values of the floor
// (normally bottom) categories, one per dimension, and measures must
// supply every measure. Returns the new fact's id.
func (m *MO) AddFact(refs []ValueID, measures []float64) (FactID, error) {
	if err := m.schema.CheckFact(refs, measures, m.floors); err != nil {
		return 0, err
	}
	return m.push(refs, measures, 1, ""), nil
}

// AddFactAt inserts a fact at any granularity, as the reduction and
// aggregation operators do. base is the number of user facts the new fact
// represents; name is an optional display label.
func (m *MO) AddFactAt(refs []ValueID, measures []float64, base int64, name string) (FactID, error) {
	if err := m.schema.CheckFact(refs, measures, nil); err != nil {
		return 0, err
	}
	if base < 1 {
		base = 1
	}
	return m.push(refs, measures, base, name), nil
}

func (m *MO) push(refs []ValueID, measures []float64, base int64, name string) FactID {
	m.own()
	id := FactID(m.Len())
	for i := range m.refs {
		m.refs[i] = append(m.refs[i], refs[i])
	}
	for j := range m.meas {
		m.meas[j] = append(m.meas[j], measures[j])
	}
	m.baseCount = append(m.baseCount, base)
	m.names = append(m.names, name)
	return id
}

// Ref returns the value fact f maps to directly in dimension i.
func (m *MO) Ref(f FactID, i int) ValueID { return m.refs[i][f] }

// Refs copies fact f's direct dimension values into a new slice.
func (m *MO) Refs(f FactID) []ValueID {
	out := make([]ValueID, len(m.refs))
	for i := range m.refs {
		out[i] = m.refs[i][f]
	}
	return out
}

// Measure returns measure j of fact f.
func (m *MO) Measure(f FactID, j int) float64 { return m.meas[j][f] }

// Measures copies fact f's measures into a new slice.
func (m *MO) Measures(f FactID) []float64 {
	out := make([]float64, len(m.meas))
	for j := range m.meas {
		out[j] = m.meas[j][f]
	}
	return out
}

// SetMeasure overwrites measure j of fact f; used by engines that merge
// partial aggregates in place.
func (m *MO) SetMeasure(f FactID, j int, v float64) {
	m.own()
	m.meas[j][f] = v
}

// BaseCount returns how many user-inserted facts f represents.
func (m *MO) BaseCount(f FactID) int64 { return m.baseCount[f] }

// AddBaseCount increases the user-fact count of f.
func (m *MO) AddBaseCount(f FactID, n int64) {
	m.own()
	m.baseCount[f] += n
}

// Name returns the fact's display label.
func (m *MO) Name(f FactID) string {
	if m.names[f] != "" {
		return m.names[f]
	}
	return fmt.Sprintf("fact_%d", f)
}

// SetName assigns a display label to fact f.
func (m *MO) SetName(f FactID, name string) {
	m.own()
	m.names[f] = name
}

// Gran returns the granularity of fact f: the tuple of categories of the
// values it maps to directly (the paper's function Gran, Eq. 10).
func (m *MO) Gran(f FactID) Granularity {
	g := make(Granularity, len(m.refs))
	for i, d := range m.schema.Dims {
		g[i] = d.CategoryOf(m.refs[i][f])
	}
	return g
}

// CharacterizedBy reports f ~> v in dimension i: v is the direct value or
// an ancestor of it.
func (m *MO) CharacterizedBy(f FactID, i int, v ValueID) bool {
	return m.schema.Dims[i].ValueLE(m.refs[i][f], v)
}

// CellString renders a fact's cell the way the figures do, e.g.
// "1999Q4, cnn.com".
func (m *MO) CellString(f FactID) string {
	var b strings.Builder
	for i, d := range m.schema.Dims {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(d.ValueName(m.refs[i][f]))
	}
	return b.String()
}

// Clone returns a deep copy of the MO's fact data (dimensions are shared,
// as they are immutable once populated for a given analysis). The copy
// owns its columns, whether or not m does.
func (m *MO) Clone() *MO {
	c := &MO{
		schema:    m.schema,
		refs:      make([][]ValueID, len(m.refs)),
		meas:      make([][]float64, len(m.meas)),
		baseCount: append([]int64(nil), m.baseCount...),
		names:     append([]string(nil), m.names...),
		floors:    append(Granularity(nil), m.floors...),
		borrowed:  false,
	}
	for i := range m.refs {
		c.refs[i] = append([]ValueID(nil), m.refs[i]...)
	}
	for j := range m.meas {
		c.meas[j] = append([]float64(nil), m.meas[j]...)
	}
	return c
}

// Borrow returns an MO with m's facts that copies nothing until it is
// written: it reads m's columns, and its first AddFact, AddFactAt,
// SetMeasure, AddBaseCount or SetName copies them (Clone) before
// writing, so nothing written through the borrow reaches m. m itself must
// not change while a borrow reads it — it is meant for frozen MOs, such
// as a published view.
func (m *MO) Borrow() *MO {
	return &MO{
		schema:    m.schema,
		refs:      m.refs,
		meas:      m.meas,
		baseCount: m.baseCount,
		names:     m.names,
		floors:    m.floors,
		borrowed:  true,
	}
}

// own gives a borrowed MO columns of its own; every mutator calls it
// before its first write.
func (m *MO) own() {
	if m.borrowed {
		m.unborrow()
	}
}

// unborrow swaps a borrow's columns for a copy. It stays out of line so
// that own inlines, and with it SetMeasure, AddBaseCount and SetName: the
// fold loops call them per cell, and a call to own per write made a
// push-and-merge loop 7 % slower.
//
//go:noinline
func (m *MO) unborrow() { *m = *m.Clone() }

// TotalMeasure folds measure j across all facts with its default
// aggregate function; used by conservation-law tests and experiments.
func (m *MO) TotalMeasure(j int) float64 {
	agg := m.schema.Measures[j].Agg
	var acc float64
	first := true
	for f := 0; f < m.Len(); f++ {
		v := agg.Init(m.meas[j][f])
		if agg == AggCount {
			v = float64(m.baseCount[f])
		}
		if first {
			acc, first = v, false
		} else {
			acc = agg.Merge(acc, v)
		}
	}
	return acc
}

// Dump renders the fact set sorted by cell, one fact per line, for the
// experiment harness and tests that compare against the paper's figures.
func (m *MO) Dump() string {
	type row struct {
		cell string
		line string
	}
	rows := make([]row, 0, m.Len())
	for f := 0; f < m.Len(); f++ {
		fid := FactID(f)
		var b strings.Builder
		fmt.Fprintf(&b, "%s: %s |", m.Name(fid), m.CellString(fid))
		for j := range m.schema.Measures {
			fmt.Fprintf(&b, " %s=%v", m.schema.Measures[j].Name, m.meas[j][f])
		}
		rows = append(rows, row{m.CellString(fid), b.String()})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].cell < rows[j].cell })
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(r.line)
		b.WriteByte('\n')
	}
	return b.String()
}

// DumpCells renders the fact set sorted by cell with measures and base
// counts but without the display names, which encode the provenance of
// the physical plan (which intermediate facts merged into the result),
// not data. Differential tests compare two plans for the same query —
// e.g. a view-served answer against the base-path answer — for byte
// equality of everything semantic.
func (m *MO) DumpCells() string {
	lines := make([]string, 0, m.Len())
	for f := 0; f < m.Len(); f++ {
		fid := FactID(f)
		var b strings.Builder
		fmt.Fprintf(&b, "%s |", m.CellString(fid))
		for j := range m.schema.Measures {
			fmt.Fprintf(&b, " %s=%v", m.schema.Measures[j].Name, m.meas[j][f])
		}
		fmt.Fprintf(&b, " | base=%d", m.baseCount[f])
		lines = append(lines, b.String())
	}
	sort.Strings(lines)
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}
