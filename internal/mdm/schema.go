package mdm

import (
	"fmt"
	"strings"
)

// AggKind is a distributive default aggregate function for a measure. The
// paper requires default aggregate functions to be distributive so that
// reduction (and the two-step combination of subcube query results) can
// aggregate repeatedly without error.
type AggKind int

const (
	AggSum AggKind = iota
	AggCount
	AggMin
	AggMax
)

var aggNames = [...]string{"SUM", "COUNT", "MIN", "MAX"}

// String returns the function name, e.g. "SUM".
func (a AggKind) String() string {
	if a < AggSum || a > AggMax {
		return fmt.Sprintf("AggKind(%d)", int(a))
	}
	return aggNames[a]
}

// Init lifts a base measure value into the aggregate domain: COUNT of a
// single fact is 1, every other function starts from the value itself.
func (a AggKind) Init(x float64) float64 {
	if a == AggCount {
		return 1
	}
	return x
}

// Merge combines two partial aggregates. Distributivity means repeated
// merging in any association order yields the same result, which
// TestAggMergeAssociativeCommutative verifies; Merge reads nothing but its
// arguments, so the result cannot depend on a clock or on visit order.
func (a AggKind) Merge(x, y float64) float64 {
	switch a {
	case AggSum, AggCount:
		return x + y
	case AggMin:
		if y < x {
			return y
		}
		return x
	case AggMax:
		if y > x {
			return y
		}
		return x
	}
	panic(fmt.Sprintf("mdm: Merge: bad AggKind %d", a))
}

// Measure is a measure type: a name plus its default aggregate function.
type Measure struct {
	Name string
	Agg  AggKind
}

// Schema is an n-dimensional fact schema S = (F, D, M): a fact type name,
// dimension types (here carried by the Dimension instances) and measure
// types.
type Schema struct {
	FactType string
	Dims     []*Dimension
	Measures []Measure
}

// NewSchema builds a schema after validating that all dimensions are
// finalized and names are unique.
func NewSchema(factType string, dims []*Dimension, measures []Measure) (*Schema, error) {
	if factType == "" {
		return nil, fmt.Errorf("mdm: schema: empty fact type")
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("mdm: schema: no dimensions")
	}
	seen := make(map[string]bool)
	for _, d := range dims {
		if d == nil || !d.Finalized() {
			return nil, fmt.Errorf("mdm: schema: dimension not finalized")
		}
		if seen[d.Name()] {
			return nil, fmt.Errorf("mdm: schema: duplicate dimension %q", d.Name())
		}
		seen[d.Name()] = true
	}
	mseen := make(map[string]bool)
	for _, m := range measures {
		if m.Name == "" {
			return nil, fmt.Errorf("mdm: schema: empty measure name")
		}
		if mseen[m.Name] {
			return nil, fmt.Errorf("mdm: schema: duplicate measure %q", m.Name)
		}
		if m.Agg < AggSum || m.Agg > AggMax {
			return nil, fmt.Errorf("mdm: schema: measure %q has unknown aggregate %s", m.Name, m.Agg)
		}
		mseen[m.Name] = true
	}
	return &Schema{FactType: factType, Dims: dims, Measures: measures}, nil
}

// NumDims returns the number of dimensions n.
func (s *Schema) NumDims() int { return len(s.Dims) }

// DimIndex resolves a dimension by name; -1 when absent.
func (s *Schema) DimIndex(name string) int {
	for i, d := range s.Dims {
		if d.Name() == name {
			return i
		}
	}
	return -1
}

// MeasureIndex resolves a measure by name; -1 when absent.
func (s *Schema) MeasureIndex(name string) int {
	for i, m := range s.Measures {
		if m.Name == name {
			return i
		}
	}
	return -1
}

// Granularity is an n-tuple of categories, one per dimension, e.g.
// (Time.quarter, URL.domain). It is the "level of detail" of a fact.
type Granularity []CategoryID

// packWidth returns the bits per value at which a cell of nDims values
// packs into the low 63 bits of a uint64, or 0 when it cannot. CellMap
// keeps the top bit to tell a held key from an empty slot.
func packWidth(nDims int) uint {
	if nDims <= 0 || nDims > 63 {
		return 0
	}
	return uint(63 / nDims)
}

// packCell encodes the cell into one uint64, width bits per value, so a
// map keyed by cell needs no allocation per probe. ok is false when
// width is 0 or a value needs more bits: uint64(ValueID) sign-extends,
// so negative values overflow the width check and reject themselves. A
// given cell always packs the same way; CellMap keeps the cells that do
// not pack under AppendCellKey's string form.
func packCell(cell []ValueID, width uint) (key uint64, ok bool) {
	if width == 0 {
		return 0, false
	}
	for _, v := range cell {
		u := uint64(v)
		if u>>width != 0 {
			return 0, false
		}
		key = key<<width | u
	}
	return key, true
}

// AppendCellKey appends the cell's four-bytes-per-value key to buf: the
// key of every cell as far as a plain string-keyed map is concerned, and
// CellMap's key for the cells that do not pack.
func AppendCellKey(buf []byte, cell []ValueID) []byte {
	for _, v := range cell {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return buf
}

// RollUp appends to dst the cell rolled up to level: per dimension, the
// ancestor of cell[i] in category level[i]. It is Cell(f, t)'s last step
// (Eq. 12) and Group_high's key (Eq. 38). A value with no ancestor there —
// the category is below or beside its own, as Time.month is beside a
// Time.week value — is an error.
func (s *Schema) RollUp(dst, cell []ValueID, level Granularity) ([]ValueID, error) {
	for i, d := range s.Dims {
		up := d.AncestorAt(cell[i], level[i])
		if up == NoValue {
			return dst, fmt.Errorf("mdm: value %s has no ancestor at %s.%s",
				d.ValueName(cell[i]), d.Name(), d.Category(level[i]).Name)
		}
		dst = append(dst, up)
	}
	return dst, nil
}

// CheckCell validates a cell that arrives from outside the engine: one
// value per dimension, each an id the dimension holds and, when floors is
// non-nil, a value of floors' category there.
func (s *Schema) CheckCell(cell []ValueID, floors Granularity) error {
	if len(cell) != len(s.Dims) {
		return fmt.Errorf("mdm: fact needs %d dimension values, got %d", len(s.Dims), len(cell))
	}
	for i, d := range s.Dims {
		if cell[i] < 0 || int(cell[i]) >= d.NumValues() {
			return fmt.Errorf("mdm: fact has invalid value id %d for dimension %s", cell[i], d.Name())
		}
		if floors == nil {
			continue
		}
		if got := d.CategoryOf(cell[i]); got != floors[i] {
			return fmt.Errorf("mdm: dimension %s value %q is in category %s, want %s",
				d.Name(), d.ValueName(cell[i]), d.Category(got).Name, d.Category(floors[i]).Name)
		}
	}
	return nil
}

// CheckFact is CheckCell for a whole fact: the cell, and one measure per
// measure type.
func (s *Schema) CheckFact(refs []ValueID, meas []float64, floors Granularity) error {
	if len(meas) != len(s.Measures) {
		return fmt.Errorf("mdm: fact needs %d measures, got %d", len(s.Measures), len(meas))
	}
	return s.CheckCell(refs, floors)
}

// GranLE reports g1 <=_g g2 pointwise (Eq. 6). Both granularities must
// have one category per schema dimension.
func (s *Schema) GranLE(g1, g2 Granularity) bool {
	for i := range s.Dims {
		if !s.Dims[i].CatLE(g1[i], g2[i]) {
			return false
		}
	}
	return true
}

// GranEq reports pointwise equality.
func (s *Schema) GranEq(g1, g2 Granularity) bool {
	for i := range g1 {
		if g1[i] != g2[i] {
			return false
		}
	}
	return true
}

// BottomGranularity returns the tuple of bottom categories.
func (s *Schema) BottomGranularity() Granularity {
	g := make(Granularity, len(s.Dims))
	for i, d := range s.Dims {
		g[i] = d.Bottom()
	}
	return g
}

// MaxGranularity returns the maximum of a non-empty set of granularities
// under <=_g (the function max_{<=_g} of Section 4.2). It fails if the
// set has no maximum, which a NonCrossing specification never produces.
func (s *Schema) MaxGranularity(gs []Granularity) (Granularity, error) {
	if len(gs) == 0 {
		return nil, fmt.Errorf("mdm: MaxGranularity of empty set")
	}
	// One pass picks the maximum if one exists (when the true maximum M is
	// reached, best <=_g M holds, so best becomes M and never changes
	// afterwards); a verification pass detects sets with no maximum.
	best := gs[0]
	for _, g := range gs[1:] {
		if s.GranLE(best, g) {
			best = g
		}
	}
	for _, g := range gs {
		if !s.GranLE(g, best) {
			return nil, fmt.Errorf("mdm: granularity set has no maximum: %s and %s are incomparable",
				s.GranString(g), s.GranString(best))
		}
	}
	return best, nil
}

// GranString renders a granularity as the paper writes it, e.g.
// "(Time.quarter, URL.domain)".
func (s *Schema) GranString(g Granularity) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, d := range s.Dims {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(d.Name())
		b.WriteByte('.')
		b.WriteString(d.Category(g[i]).Name)
	}
	b.WriteByte(')')
	return b.String()
}

// ParseGranularity resolves "Time.month, URL.domain"-style category
// references, one per dimension, in any dimension order.
func (s *Schema) ParseGranularity(refs []string) (Granularity, error) {
	return s.ResolveGranularity(len(refs), func(i int) (string, string, bool) {
		return strings.Cut(refs[i], ".")
	})
}

// ResolveGranularity is the granularity named by n category references,
// one per dimension, in any dimension order: ref(i) returns reference i
// as a (dimension, category) name pair, each trimmed of spaces here, and
// ok false when the reference has no "Dim.category" form. Errors quote a
// reference as dim + "." + cat.
func (s *Schema) ResolveGranularity(n int, ref func(i int) (dim, cat string, ok bool)) (Granularity, error) {
	if n != len(s.Dims) {
		return nil, fmt.Errorf("mdm: granularity needs %d categories, got %d", len(s.Dims), n)
	}
	g := make(Granularity, len(s.Dims))
	for i := range g {
		g[i] = NoCategory
	}
	for i := 0; i < n; i++ {
		dim, cat, ok := ref(i)
		if !ok {
			return nil, fmt.Errorf("mdm: category reference %q must be Dim.category", dim)
		}
		di := s.DimIndex(strings.TrimSpace(dim))
		if di < 0 {
			return nil, fmt.Errorf("mdm: unknown dimension in %q", dim+"."+cat)
		}
		if g[di] != NoCategory {
			return nil, fmt.Errorf("mdm: duplicate dimension in granularity: %q", dim+"."+cat)
		}
		c, ok := s.Dims[di].CategoryByName(strings.TrimSpace(cat))
		if !ok {
			return nil, fmt.Errorf("mdm: unknown category in %q", dim+"."+cat)
		}
		g[di] = c
	}
	// n references on distinct dimensions name every dimension.
	return g, nil
}
