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
	// cols holds the fact columns. An MO that owns them allocates them
	// with its header (owned); a borrow points at its source's.
	cols   *columns
	floors Granularity
	// borrowed marks columns that belong to the MO Borrow was called on.
	borrowed bool
}

// columns is an MO's fact data, one block behind one pointer, so that a
// borrow copies the pointer instead of four slice headers.
type columns struct {
	refs [][]ValueID
	meas [][]float64
	// baseCount[f] is the number of user-inserted facts aggregated into f
	// (1 for user-inserted facts). It feeds provenance reporting and the
	// COUNT aggregate.
	baseCount []int64
	// names[f] is an optional display label ("fact_03"); empty entries
	// render as "fact_<id>".
	names []string
}

// owned is an MO allocated together with its column block: an MO that
// owns its columns costs one allocation, as it did when the columns sat
// in the header.
type owned struct {
	mo   MO
	cols columns
}

// newOwned returns an MO over s with an empty column block of its own.
func newOwned(s *Schema, floors Granularity) *MO {
	o := &owned{}
	o.mo = MO{schema: s, cols: &o.cols, floors: floors}
	return &o.mo
}

// NewMO creates an empty MO over the schema, accepting user inserts at
// the bottom granularity.
func NewMO(s *Schema) *MO {
	m := newOwned(s, s.BottomGranularity())
	m.cols.refs = make([][]ValueID, len(s.Dims))
	m.cols.meas = make([][]float64, len(s.Measures))
	return m
}

// Schema returns the MO's fact schema.
func (m *MO) Schema() *Schema { return m.schema }

// Len returns the number of facts.
func (m *MO) Len() int {
	if len(m.cols.refs) == 0 {
		return 0
	}
	return len(m.cols.refs[0])
}

// Floors returns a copy of the granularity at which AddFact accepts
// facts: the bottom granularity for a base MO, the result granularity for
// an MO produced by aggregate formation. It is a copy, as Refs and
// Measures are, because the floors are shared: SetFloors keeps its
// argument (a query's target, a cube's granularity) and Borrow shares a
// published view's, so a write into them would reach those.
func (m *MO) Floors() Granularity { return append(Granularity(nil), m.floors...) }

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
	for i := range m.cols.refs {
		m.cols.refs[i] = append(m.cols.refs[i], refs[i])
	}
	for j := range m.cols.meas {
		m.cols.meas[j] = append(m.cols.meas[j], measures[j])
	}
	m.cols.baseCount = append(m.cols.baseCount, base)
	m.cols.names = append(m.cols.names, name)
	return id
}

// Ref returns the value fact f maps to directly in dimension i.
func (m *MO) Ref(f FactID, i int) ValueID { return m.cols.refs[i][f] }

// Refs copies fact f's direct dimension values into a new slice.
func (m *MO) Refs(f FactID) []ValueID {
	out := make([]ValueID, len(m.cols.refs))
	for i := range m.cols.refs {
		out[i] = m.cols.refs[i][f]
	}
	return out
}

// Measure returns measure j of fact f.
func (m *MO) Measure(f FactID, j int) float64 { return m.cols.meas[j][f] }

// Measures copies fact f's measures into a new slice.
func (m *MO) Measures(f FactID) []float64 {
	out := make([]float64, len(m.cols.meas))
	for j := range m.cols.meas {
		out[j] = m.cols.meas[j][f]
	}
	return out
}

// SetMeasure overwrites measure j of fact f; used by engines that merge
// partial aggregates in place.
func (m *MO) SetMeasure(f FactID, j int, v float64) {
	m.own()
	m.cols.meas[j][f] = v
}

// BaseCount returns how many user-inserted facts f represents.
func (m *MO) BaseCount(f FactID) int64 { return m.cols.baseCount[f] }

// AddBaseCount increases the user-fact count of f.
func (m *MO) AddBaseCount(f FactID, n int64) {
	m.own()
	m.cols.baseCount[f] += n
}

// Name returns the fact's display label.
func (m *MO) Name(f FactID) string {
	if m.cols.names[f] != "" {
		return m.cols.names[f]
	}
	return fmt.Sprintf("fact_%d", f)
}

// MergedName names the fact that folds facts with the given names,
// following the paper's figures: fact_0 and fact_3 fold to "fact_03",
// fact_4 and fact_5 to "fact_45". A single source keeps its name; sources
// without the fact_<digits> shape fall back to "agg(<n> facts)". The
// reduction engine and the query algebra both name folded facts by it.
func MergedName(sources []string) string {
	if len(sources) == 1 {
		return sources[0]
	}
	suffixes := make([]string, 0, len(sources))
	for _, name := range sources {
		rest, ok := strings.CutPrefix(name, "fact_")
		if !ok {
			return fmt.Sprintf("agg(%d facts)", len(sources))
		}
		suffixes = append(suffixes, rest)
	}
	sort.Strings(suffixes)
	return "fact_" + strings.Join(suffixes, "")
}

// SetName assigns a display label to fact f.
func (m *MO) SetName(f FactID, name string) {
	m.own()
	m.cols.names[f] = name
}

// Gran returns the granularity of fact f: the tuple of categories of the
// values it maps to directly (the paper's function Gran, Eq. 10).
func (m *MO) Gran(f FactID) Granularity {
	g := make(Granularity, len(m.cols.refs))
	for i, d := range m.schema.Dims {
		g[i] = d.CategoryOf(m.cols.refs[i][f])
	}
	return g
}

// CharacterizedBy reports f ~> v in dimension i: v is the direct value or
// an ancestor of it.
func (m *MO) CharacterizedBy(f FactID, i int, v ValueID) bool {
	return m.schema.Dims[i].ValueLE(m.cols.refs[i][f], v)
}

// CellString renders a fact's cell the way the figures do, e.g.
// "1999Q4, cnn.com".
func (m *MO) CellString(f FactID) string {
	var b strings.Builder
	for i, d := range m.schema.Dims {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(d.ValueName(m.cols.refs[i][f]))
	}
	return b.String()
}

// Clone returns a deep copy of the MO's fact data (dimensions are shared,
// as they are immutable once populated for a given analysis). The copy
// owns its columns, whether or not m does.
func (m *MO) Clone() *MO {
	c := newOwned(m.schema, append(Granularity(nil), m.floors...))
	c.cols.refs = make([][]ValueID, len(m.cols.refs))
	c.cols.meas = make([][]float64, len(m.cols.meas))
	c.cols.baseCount = append([]int64(nil), m.cols.baseCount...)
	c.cols.names = append([]string(nil), m.cols.names...)
	for i := range m.cols.refs {
		c.cols.refs[i] = append([]ValueID(nil), m.cols.refs[i]...)
	}
	for j := range m.cols.meas {
		c.cols.meas[j] = append([]float64(nil), m.cols.meas[j]...)
	}
	return c
}

// Borrow returns an MO with m's facts that copies nothing until it is
// written: it reads m's column block, and its first AddFact, AddFactAt,
// SetMeasure, AddBaseCount or SetName copies it (Clone) before writing,
// so nothing written through the borrow reaches m. m itself must not
// change while a borrow reads it — it is meant for frozen MOs, such as a
// published view. A borrow is one 48-byte header.
func (m *MO) Borrow() *MO {
	return &MO{schema: m.schema, cols: m.cols, floors: m.floors, borrowed: true}
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
		v := agg.Init(m.cols.meas[j][f])
		if agg == AggCount {
			v = float64(m.cols.baseCount[f])
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
			fmt.Fprintf(&b, " %s=%v", m.schema.Measures[j].Name, m.cols.meas[j][f])
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
			fmt.Fprintf(&b, " %s=%v", m.schema.Measures[j].Name, m.cols.meas[j][f])
		}
		fmt.Fprintf(&b, " | base=%d", m.cols.baseCount[f])
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
