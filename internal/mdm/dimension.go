// Package mdm implements the prototypical multidimensional data model of
// Skyt, Jensen & Pedersen (Section 3): n-dimensional fact schemas,
// dimension types with partially ordered category types, dimensions whose
// values form a containment partial order, fact-dimension relations,
// measures with distributive default aggregate functions, and
// multidimensional objects (MOs).
//
// The model intentionally supports non-linear (parallel) hierarchies such
// as the paper's Time dimension, where day < week < TOP and
// day < month < quarter < year < TOP.
package mdm

import (
	"fmt"
	"sort"
)

// CategoryID identifies a category (type) within one dimension.
type CategoryID int

// ValueID identifies a dimension value within one dimension.
type ValueID int32

// NoValue is returned by lookups that find no dimension value, e.g. the
// ancestor of a quarter value in the week category.
const NoValue ValueID = -1

// NoCategory is returned by category lookups that find nothing.
const NoCategory CategoryID = -1

// Category describes one category type of a dimension. Ordered categories
// support the inequality comparison operators of the specification and
// query languages; unordered categories support only =, != and set
// membership, as the paper requires operators to be "defined for elements
// of this type".
type Category struct {
	Name    string
	Ordered bool
}

// TopCategory is the name automatically given to the top category type
// (written ⊤_T in the paper); its single value logically contains every
// other value of the dimension.
const TopCategory = "TOP"

// TopValue is the name of the single value of the top category (the ALL
// value of Gray et al.).
const TopValue = "T"

// valueRec holds a value's cold attributes. The attributes every roll-up
// reads, its category and its ancestors, are the Dimension's flat cat and
// anc columns.
type valueRec struct {
	name    string
	ord     int64
	parents []ValueID // aligned with the dimension's imm[cat[v]]
}

// Dimension is a dimension instance together with its dimension type: a
// set of categories with a partial order (category order <=_T) and a set
// of values per category with a containment partial order (<=_D),
// represented by immediate-parent links.
//
// maxCategories bounds a dimension's categories, so that the closure
// bitsets fit a uint64, a category fits the one-byte cat column and
// AddValue builds an ancestor row in a fixed buffer.
const maxCategories = 63

// A Dimension is built in two phases: categories and their containment
// edges first, then Finalize, then values. This mirrors the paper's
// separation of schema (dimension type) and instance (dimension).
type Dimension struct {
	name      string
	cats      []Category
	catByName map[string]CategoryID
	imm       [][]CategoryID // immediate ancestor categories (function Anc)
	le        []uint64       // closure bitsets: le[c]&(1<<j) != 0 iff c <=_T j
	glb       []CategoryID   // glb[a*len(cats)+b] = GLB(a, b); categories are fixed after Finalize
	bottom    CategoryID
	top       CategoryID
	finalized bool

	// Per-value columns, indexed by ValueID and only ever appended to.
	values []valueRec
	cat    []uint8   // cat[v] = v's category
	anc    []ValueID // anc[v*len(cats)+c] = ancestor of v at category c, or NoValue

	byCat     [][]ValueID
	valByName []map[string]ValueID
	children  [][]ValueID // immediate children per value
	topValue  ValueID
}

// NewDimension creates an empty dimension with the given name. The top
// category and its single value are added automatically by Finalize.
func NewDimension(name string) *Dimension {
	return &Dimension{
		name:      name,
		catByName: make(map[string]CategoryID),
	}
}

// Name returns the dimension's name.
func (d *Dimension) Name() string { return d.name }

// AddCategory adds a category type and returns its id. Categories cannot
// be added after Finalize.
func (d *Dimension) AddCategory(name string, ordered bool) (CategoryID, error) {
	if d.finalized {
		return NoCategory, fmt.Errorf("mdm: dimension %s: AddCategory after Finalize", d.name)
	}
	if _, dup := d.catByName[name]; dup {
		return NoCategory, fmt.Errorf("mdm: dimension %s: duplicate category %q", d.name, name)
	}
	if len(d.cats) >= maxCategories {
		return NoCategory, fmt.Errorf("mdm: dimension %s: too many categories", d.name)
	}
	id := CategoryID(len(d.cats))
	d.cats = append(d.cats, Category{Name: name, Ordered: ordered})
	d.catByName[name] = id
	d.imm = append(d.imm, nil)
	return id, nil
}

// MustAddCategory is AddCategory for programmatic schema construction; it
// panics on error.
func (d *Dimension) MustAddCategory(name string, ordered bool) CategoryID {
	id, err := d.AddCategory(name, ordered)
	if err != nil {
		panic(err)
	}
	return id
}

// Contains declares that each value of category lower is contained in a
// value of category upper (lower <_T upper as an immediate edge), e.g.
// day <_Time month.
func (d *Dimension) Contains(lower, upper CategoryID) error {
	if d.finalized {
		return fmt.Errorf("mdm: dimension %s: Contains after Finalize", d.name)
	}
	if !d.validCat(lower) || !d.validCat(upper) {
		return fmt.Errorf("mdm: dimension %s: Contains: bad category id", d.name)
	}
	if lower == upper {
		return fmt.Errorf("mdm: dimension %s: category %s cannot contain itself", d.name, d.cats[lower].Name)
	}
	for _, a := range d.imm[lower] {
		if a == upper {
			return nil // already declared
		}
	}
	d.imm[lower] = append(d.imm[lower], upper)
	return nil
}

func (d *Dimension) validCat(c CategoryID) bool { return c >= 0 && int(c) < len(d.cats) }

// Finalize closes the category schema: it adds the top category with its
// single ⊤ value, links every maximal category below it, computes the
// transitive closure of <=_T, and verifies that the order is acyclic with
// a unique bottom category. No categories or containment edges may be
// added afterwards; values may.
func (d *Dimension) Finalize() error {
	if d.finalized {
		return fmt.Errorf("mdm: dimension %s: already finalized", d.name)
	}
	if len(d.cats) == 0 {
		return fmt.Errorf("mdm: dimension %s: no categories", d.name)
	}
	// Add the top category and link maximal categories to it.
	top, err := d.AddCategory(TopCategory, false)
	if err != nil {
		return err
	}
	d.top = top
	for c := range d.cats[:top] {
		if len(d.imm[c]) == 0 {
			d.imm[c] = append(d.imm[c], top)
		}
	}

	// Transitive closure by iterating to a fixed point (few categories).
	n := len(d.cats)
	d.le = make([]uint64, n)
	for c := range d.le {
		d.le[c] = 1 << uint(c)
	}
	for changed := true; changed; {
		changed = false
		for c := 0; c < n; c++ {
			for _, a := range d.imm[c] {
				merged := d.le[c] | d.le[a]
				if merged != d.le[c] {
					d.le[c] = merged
					changed = true
				}
			}
		}
	}
	// Acyclicity: c <= a and a <= c implies c == a.
	for c := 0; c < n; c++ {
		for a := 0; a < n; a++ {
			if c != a && d.le[c]&(1<<uint(a)) != 0 && d.le[a]&(1<<uint(c)) != 0 {
				return fmt.Errorf("mdm: dimension %s: categories %s and %s form a cycle",
					d.name, d.cats[c].Name, d.cats[a].Name)
			}
		}
	}
	// Everything must reach the top.
	for c := 0; c < n; c++ {
		if d.le[c]&(1<<uint(top)) == 0 {
			return fmt.Errorf("mdm: dimension %s: category %s not below top", d.name, d.cats[c].Name)
		}
	}
	// Unique bottom: exactly one category below all others.
	bottom := NoCategory
	for c := 0; c < n; c++ {
		isBottom := true
		for a := 0; a < n; a++ {
			if d.le[c]&(1<<uint(a)) == 0 {
				isBottom = false
				break
			}
		}
		if isBottom {
			if bottom != NoCategory {
				return fmt.Errorf("mdm: dimension %s: multiple bottom categories", d.name)
			}
			bottom = CategoryID(c)
		}
	}
	if bottom == NoCategory {
		return fmt.Errorf("mdm: dimension %s: no bottom category (every category must contain the bottom)", d.name)
	}
	d.bottom = bottom
	d.glb = make([]CategoryID, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			d.glb[a*n+b] = d.glbScan(CategoryID(a), CategoryID(b))
		}
	}

	d.byCat = make([][]ValueID, n)
	d.valByName = make([]map[string]ValueID, n)
	for c := range d.valByName {
		d.valByName[c] = make(map[string]ValueID)
	}
	d.finalized = true

	// The single top value ⊤.
	tv, err := d.AddValue(top, TopValue, 0, nil)
	if err != nil {
		return err
	}
	d.topValue = tv
	return nil
}

// MustFinalize panics if Finalize fails.
func (d *Dimension) MustFinalize() {
	if err := d.Finalize(); err != nil {
		panic(err)
	}
}

// Finalized reports whether the category schema is closed.
func (d *Dimension) Finalized() bool { return d.finalized }

// NumCategories returns the number of categories including the top.
func (d *Dimension) NumCategories() int { return len(d.cats) }

// Category returns the category with the given id.
func (d *Dimension) Category(c CategoryID) Category { return d.cats[c] }

// CategoryByName resolves a category name; ok is false if absent.
func (d *Dimension) CategoryByName(name string) (CategoryID, bool) {
	c, ok := d.catByName[name]
	return c, ok
}

// Bottom returns the bottom category (⊥_T).
func (d *Dimension) Bottom() CategoryID { return d.bottom }

// Top returns the top category (⊤_T).
func (d *Dimension) Top() CategoryID { return d.top }

// CatLE reports c1 <=_T c2 in the category partial order.
func (d *Dimension) CatLE(c1, c2 CategoryID) bool {
	return d.le[c1]&(1<<uint(c2)) != 0
}

// CatComparable reports whether c1 and c2 are comparable under <=_T.
func (d *Dimension) CatComparable(c1, c2 CategoryID) bool {
	return d.CatLE(c1, c2) || d.CatLE(c2, c1)
}

// Anc returns the set of immediate ancestor categories of c (the paper's
// function Anc). The returned slice must not be modified.
func (d *Dimension) Anc(c CategoryID) []CategoryID { return d.imm[c] }

// Linear reports whether the hierarchy is linear, i.e. <=_T is total.
// The paper's URL dimension is linear; its Time dimension is not.
func (d *Dimension) Linear() bool {
	for c1 := range d.cats {
		for c2 := range d.cats {
			if !d.CatComparable(CategoryID(c1), CategoryID(c2)) {
				return false
			}
		}
	}
	return true
}

// GLB returns the greatest lower bound of the given categories (Eq. 33).
// The bottom category guarantees at least one lower bound exists; when
// the category order is not a lattice any maximal lower bound is
// returned, as the paper permits ("any lower bound will do"). The
// two-category form, which comparisons and roll-ups call per value, is a
// lookup in the table Finalize built.
func (d *Dimension) GLB(cats ...CategoryID) CategoryID {
	if len(cats) == 2 {
		return d.glb[int(cats[0])*len(d.cats)+int(cats[1])]
	}
	return d.glbScan(cats...)
}

// glbScan computes GLB from the category order: the last category, in id
// order, that is below every given one and above the best so far.
func (d *Dimension) glbScan(cats ...CategoryID) CategoryID {
	best := d.bottom
	for c := 0; c < len(d.cats); c++ {
		cid := CategoryID(c)
		lower := true
		for _, x := range cats {
			if !d.CatLE(cid, x) {
				lower = false
				break
			}
		}
		if lower && d.CatLE(best, cid) {
			best = cid
		}
	}
	return best
}

// AddValue adds a dimension value to category cat. ord is the value's
// position in the category's total order (used only by ordered
// categories, e.g. the period index for time categories). parents maps
// each immediate ancestor category of cat to the containing value there;
// ancestor categories that are the top category may be omitted (the ⊤
// value is implied). Duplicate names within one category are rejected.
func (d *Dimension) AddValue(cat CategoryID, name string, ord int64, parents map[CategoryID]ValueID) (ValueID, error) {
	if !d.finalized {
		return NoValue, fmt.Errorf("mdm: dimension %s: AddValue before Finalize", d.name)
	}
	if !d.validCat(cat) {
		return NoValue, fmt.Errorf("mdm: dimension %s: AddValue: bad category", d.name)
	}
	if _, dup := d.valByName[cat][name]; dup {
		return NoValue, fmt.Errorf("mdm: dimension %s: duplicate value %q in category %s", d.name, name, d.cats[cat].Name)
	}
	ps := make([]ValueID, len(d.imm[cat]))
	for i, ac := range d.imm[cat] {
		p, ok := parents[ac]
		if !ok {
			if ac == d.top {
				p = d.topValue
			} else {
				return NoValue, fmt.Errorf("mdm: dimension %s: value %q missing parent in category %s",
					d.name, name, d.cats[ac].Name)
			}
		}
		if p < 0 || int(p) >= len(d.values) || CategoryID(d.cat[p]) != ac {
			return NoValue, fmt.Errorf("mdm: dimension %s: value %q has invalid parent for category %s",
				d.name, name, d.cats[ac].Name)
		}
		ps[i] = p
	}
	// Ancestor row: self, plus everything reachable through parents. It is
	// built beside the columns, so a refused value leaves nothing to undo.
	n := len(d.cats)
	id := ValueID(len(d.values))
	var buf [maxCategories]ValueID
	row := buf[:n]
	for c := range row {
		row[c] = NoValue
	}
	row[cat] = id
	for i, p := range ps {
		for c, av := range d.anc[int(p)*n : int(p)*n+n] {
			if av == NoValue {
				continue
			}
			if row[c] == NoValue {
				row[c] = av
			} else if row[c] != av {
				// Two parents roll up to different values of the same
				// category: the containment mapping is not functional.
				return NoValue, fmt.Errorf("mdm: dimension %s: value %q has conflicting ancestors in category %s (via parent %d)",
					d.name, name, d.cats[c].Name, i)
			}
		}
	}
	d.values = append(d.values, valueRec{name: name, ord: ord, parents: ps})
	d.cat = append(d.cat, uint8(cat))
	d.anc = append(d.anc, row...)
	d.byCat[cat] = append(d.byCat[cat], id)
	d.valByName[cat][name] = id
	d.children = append(d.children, nil)
	for _, p := range ps {
		d.children[p] = append(d.children[p], id)
	}
	return id, nil
}

// MustAddValue panics if AddValue fails.
func (d *Dimension) MustAddValue(cat CategoryID, name string, ord int64, parents map[CategoryID]ValueID) ValueID {
	id, err := d.AddValue(cat, name, ord, parents)
	if err != nil {
		panic(err)
	}
	return id
}

// NumValues returns the number of values across all categories (including
// the top value).
func (d *Dimension) NumValues() int { return len(d.values) }

// ValueName returns the name of value v.
func (d *Dimension) ValueName(v ValueID) string { return d.values[v].name }

// ValueOrd returns the ordering key of value v within its category.
func (d *Dimension) ValueOrd(v ValueID) int64 { return d.values[v].ord }

// CategoryOf returns the category containing value v.
func (d *Dimension) CategoryOf(v ValueID) CategoryID { return CategoryID(d.cat[v]) }

// ValueByName resolves a value by category and name.
func (d *Dimension) ValueByName(cat CategoryID, name string) (ValueID, bool) {
	v, ok := d.valByName[cat][name]
	return v, ok
}

// ValuesIn returns the values of a category in insertion order. The
// returned slice must not be modified.
func (d *Dimension) ValuesIn(cat CategoryID) []ValueID { return d.byCat[cat] }

// Top value ⊤ of the dimension.
func (d *Dimension) TopValueID() ValueID { return d.topValue }

// AncestorAt returns the ancestor of v in category cat (v itself when
// cat is v's category), or NoValue when cat is not reachable above v —
// e.g. the week ancestor of a quarter value.
func (d *Dimension) AncestorAt(v ValueID, cat CategoryID) ValueID {
	return d.anc[int(v)*len(d.cats)+int(cat)]
}

// ValueLE reports v1 <=_D v2: v2 logically contains v1 (reflexive).
func (d *Dimension) ValueLE(v1, v2 ValueID) bool {
	return d.anc[int(v1)*len(d.cats)+int(d.cat[v2])] == v2
}

// ParentsOf returns v's immediate parents keyed by their category — the
// inverse of the parents argument to AddValue. Snapshot/restore uses it
// to rebuild a dimension value-for-value with identical ids.
func (d *Dimension) ParentsOf(v ValueID) map[CategoryID]ValueID {
	rec := d.values[v]
	out := make(map[CategoryID]ValueID, len(rec.parents))
	for i, ac := range d.imm[d.cat[v]] {
		out[ac] = rec.parents[i]
	}
	return out
}

// DrillDown returns the descendants of v in category cat, sorted by their
// ordering key then id. If cat equals v's category the result is {v}; if
// cat is not below v's category the result is empty. This implements the
// drill-down used by the Definition 5 comparison semantics.
func (d *Dimension) DrillDown(v ValueID, cat CategoryID) []ValueID {
	vc := d.CategoryOf(v)
	if vc == cat {
		return []ValueID{v}
	}
	if !d.CatLE(cat, vc) {
		return nil
	}
	var out []ValueID
	seen := make(map[ValueID]bool)
	stack := []ValueID{v}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ch := range d.children[cur] {
			if seen[ch] {
				continue
			}
			seen[ch] = true
			cc := d.CategoryOf(ch)
			if cc == cat {
				out = append(out, ch)
			} else if d.CatLE(cat, cc) {
				stack = append(stack, ch)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if d.values[a].ord != d.values[b].ord {
			return d.values[a].ord < d.values[b].ord
		}
		return a < b
	})
	return out
}

// Subdimension returns a new dimension retaining only the named
// categories (plus the top category, which is always retained), with the
// value order restricted accordingly — the paper's subdimension
// construction. The resulting dimension shares no state with d, and its
// value ids differ from d's; use names to correlate.
func (d *Dimension) Subdimension(catNames ...string) (*Dimension, error) {
	if !d.finalized {
		return nil, fmt.Errorf("mdm: dimension %s: Subdimension before Finalize", d.name)
	}
	keep := make(map[CategoryID]bool)
	for _, n := range catNames {
		c, ok := d.catByName[n]
		if !ok {
			return nil, fmt.Errorf("mdm: dimension %s: no category %q", d.name, n)
		}
		keep[c] = true
	}
	keep[d.top] = false // the new top is added by Finalize
	delete(keep, d.top)

	sub := NewDimension(d.name)
	newCat := make(map[CategoryID]CategoryID)
	for c := range d.cats {
		cid := CategoryID(c)
		if !keep[cid] {
			continue
		}
		nc, err := sub.AddCategory(d.cats[c].Name, d.cats[c].Ordered)
		if err != nil {
			return nil, err
		}
		newCat[cid] = nc
	}
	// Immediate edges = cover relation of the restricted order.
	for c1 := range newCat {
		for c2 := range newCat {
			if c1 == c2 || !d.CatLE(c1, c2) {
				continue
			}
			covered := false
			for c3 := range newCat {
				if c3 != c1 && c3 != c2 && d.CatLE(c1, c3) && d.CatLE(c3, c2) {
					covered = true
					break
				}
			}
			if !covered {
				if err := sub.Contains(newCat[c1], newCat[c2]); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := sub.Finalize(); err != nil {
		return nil, err
	}
	// Re-add values bottom-up following the original insertion order,
	// which guarantees parents exist before children.
	newVal := make(map[ValueID]ValueID)
	for v := range d.values {
		vid := ValueID(v)
		oc := d.CategoryOf(vid)
		nc, kept := newCat[oc]
		if !kept {
			continue
		}
		parents := make(map[CategoryID]ValueID)
		for _, ac := range sub.imm[nc] {
			if ac == sub.top {
				continue
			}
			// Find the original category with this name and take the
			// ancestor there.
			origAC := d.catByName[sub.cats[ac].Name]
			av := d.AncestorAt(vid, origAC)
			if av == NoValue {
				return nil, fmt.Errorf("mdm: dimension %s: subdimension value %q has no ancestor in %s",
					d.name, d.values[v].name, sub.cats[ac].Name)
			}
			nav, ok := newVal[av]
			if !ok {
				return nil, fmt.Errorf("mdm: dimension %s: subdimension parent of %q not yet added", d.name, d.values[v].name)
			}
			parents[ac] = nav
		}
		nv, err := sub.AddValue(nc, d.values[v].name, d.values[v].ord, parents)
		if err != nil {
			return nil, err
		}
		newVal[vid] = nv
	}
	return sub, nil
}
