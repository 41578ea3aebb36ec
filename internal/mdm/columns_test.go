package mdm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// dimChecker drives a Dimension through AddValue and holds its category
// and ancestor columns to a walk over ParentsOf after every step. It keeps
// its own record of each accepted value's category and name, so it can say
// beforehand whether AddValue must refuse a value, and it requires a
// refused AddValue to leave every column as it was.
type dimChecker struct {
	t     *testing.T
	d     *Dimension
	cat   []CategoryID // by id, the category each accepted value was added to
	names map[CategoryID]map[string]bool
}

func newDimChecker(t *testing.T, d *Dimension) *dimChecker {
	return &dimChecker{t: t, d: d, names: map[CategoryID]map[string]bool{}}
}

// finalized records the top value Finalize added.
func (m *dimChecker) finalized() {
	m.cat = []CategoryID{m.d.Top()}
	m.names[m.d.Top()] = map[string]bool{TopValue: true}
	m.check()
}

// walk returns v's ancestor at category c by following ParentsOf: v itself
// when c is v's category, NoValue when no path reaches c.
func (m *dimChecker) walk(v ValueID, c CategoryID) ValueID {
	if m.cat[v] == c {
		return v
	}
	for _, p := range m.d.ParentsOf(v) {
		if a := m.walk(p, c); a != NoValue {
			return a
		}
	}
	return NoValue
}

// refuses says whether AddValue(cat, name, parents) must fail: an unknown
// category, a duplicate name, a missing or invalid parent, or two parents
// whose walks reach different values of one category.
func (m *dimChecker) refuses(cat CategoryID, name string, parents map[CategoryID]ValueID) bool {
	d := m.d
	if !d.Finalized() || cat < 0 || int(cat) >= d.NumCategories() || m.names[cat][name] {
		return true
	}
	var ps []ValueID
	for _, ac := range d.Anc(cat) {
		p, ok := parents[ac]
		if !ok && ac == d.Top() {
			p, ok = d.TopValueID(), true
		}
		if !ok || p < 0 || int(p) >= len(m.cat) || m.cat[p] != ac {
			return true
		}
		ps = append(ps, p)
	}
	for c := 0; c < d.NumCategories(); c++ {
		seen := NoValue
		for _, p := range ps {
			if a := m.walk(p, CategoryID(c)); a != NoValue {
				if seen != NoValue && seen != a {
					return true
				}
				seen = a
			}
		}
	}
	return false
}

// dimColumns copies everything AddValue writes.
type dimColumns struct {
	values   []valueRec
	cat      []uint8
	anc      []ValueID
	byCat    []int
	names    []int
	children []int
}

func (m *dimChecker) columns() dimColumns {
	d := m.d
	c := dimColumns{values: slices.Clone(d.values), cat: slices.Clone(d.cat), anc: slices.Clone(d.anc)}
	for i := range d.byCat {
		c.byCat = append(c.byCat, len(d.byCat[i]))
		c.names = append(c.names, len(d.valByName[i]))
	}
	for _, kids := range d.children {
		c.children = append(c.children, len(kids))
	}
	return c
}

func (c dimColumns) equal(o dimColumns) bool {
	return len(c.values) == len(o.values) && slices.Equal(c.cat, o.cat) && slices.Equal(c.anc, o.anc) &&
		slices.Equal(c.byCat, o.byCat) && slices.Equal(c.names, o.names) && slices.Equal(c.children, o.children)
}

// addValue adds one value and checks the outcome: a refusal exactly when
// refuses predicts one, with every column unchanged, and otherwise a new
// value whose row and order agree with the walk.
func (m *dimChecker) addValue(cat CategoryID, name string, parents map[CategoryID]ValueID) {
	m.t.Helper()
	want := m.refuses(cat, name, parents)
	before := m.columns()
	id, err := m.d.AddValue(cat, name, 0, parents)
	switch {
	case want && err == nil:
		m.t.Fatalf("AddValue(%d, %q, %v) = %d, want a refusal", cat, name, parents, id)
	case !want && err != nil:
		m.t.Fatalf("AddValue(%d, %q, %v): %v", cat, name, parents, err)
	case err != nil:
		if id != NoValue || !m.columns().equal(before) {
			m.t.Fatalf("refused AddValue(%d, %q, %v) returned %d or changed the columns", cat, name, parents, id)
		}
		return
	}
	if int(id) != len(m.cat) {
		m.t.Fatalf("AddValue returned id %d, want %d", id, len(m.cat))
	}
	m.cat = append(m.cat, cat)
	if m.names[cat] == nil {
		m.names[cat] = map[string]bool{}
	}
	m.names[cat][name] = true
	m.checkValue(id)
}

// checkValue holds v's category, its ancestor row and its order against
// every value to the walk.
func (m *dimChecker) checkValue(v ValueID) {
	m.t.Helper()
	d := m.d
	if d.NumValues() != len(m.cat) {
		m.t.Fatalf("NumValues = %d, want %d", d.NumValues(), len(m.cat))
	}
	if got := d.CategoryOf(v); got != m.cat[v] {
		m.t.Fatalf("CategoryOf(%d) = %d, want %d", v, got, m.cat[v])
	}
	for c := 0; c < d.NumCategories(); c++ {
		if got, want := d.AncestorAt(v, CategoryID(c)), m.walk(v, CategoryID(c)); got != want {
			m.t.Fatalf("AncestorAt(%d, %s) = %d, want %d", v, d.Category(CategoryID(c)).Name, got, want)
		}
	}
	for w := range m.cat {
		w := ValueID(w)
		if got, want := d.ValueLE(v, w), m.walk(v, m.cat[w]) == w; got != want {
			m.t.Fatalf("ValueLE(%d, %d) = %v, want %v", v, w, got, want)
		}
		if got, want := d.ValueLE(w, v), m.walk(w, m.cat[v]) == v; got != want {
			m.t.Fatalf("ValueLE(%d, %d) = %v, want %v", w, v, got, want)
		}
	}
}

// check runs checkValue over every value.
func (m *dimChecker) check() {
	m.t.Helper()
	for v := range m.cat {
		m.checkValue(ValueID(v))
	}
}

// parents draws a parents argument for a value of cat from next: per
// immediate ancestor category, any value of that category (two such
// choices conflict when their walks meet different values above), none,
// a value of another category, or an id outside the dimension.
func (m *dimChecker) parents(cat CategoryID, next func() int) map[CategoryID]ValueID {
	d := m.d
	if cat < 0 || int(cat) >= d.NumCategories() {
		return nil
	}
	out := map[CategoryID]ValueID{}
	for _, ac := range d.Anc(cat) {
		switch next() % 6 {
		case 0, 1, 2:
			if vs := d.ValuesIn(ac); len(vs) > 0 {
				out[ac] = vs[next()%len(vs)]
			}
		case 3: // missing
		case 4:
			if len(m.cat) > 0 {
				out[ac] = ValueID(next() % len(m.cat))
			}
		case 5:
			out[ac] = []ValueID{NoValue, -2, ValueID(len(m.cat)), ValueID(len(m.cat) + 7)}[next()%4]
		}
	}
	return out
}

// randomCategoryDAG declares n categories below the top: every category
// but the first has at least one lower neighbour, so the first is the
// unique bottom, and extra edges make diamonds whose values can conflict.
func randomCategoryDAG(rng *rand.Rand, d *Dimension, n int) {
	cs := make([]CategoryID, n)
	for i := range cs {
		cs[i] = d.MustAddCategory(fmt.Sprintf("c%d", i), rng.Intn(2) == 0)
		if i == 0 {
			continue
		}
		must := rng.Intn(i)
		for j := 0; j < i; j++ {
			if j == must || rng.Intn(3) == 0 {
				if err := d.Contains(cs[j], cs[i]); err != nil {
					panic(err)
				}
			}
		}
	}
}

// timeDAG declares Figure 1's Time categories, where day rolls up to both
// week and month and the two never nest.
func timeDAG(_ *rand.Rand, d *Dimension, _ int) {
	day := d.MustAddCategory("day", true)
	week := d.MustAddCategory("week", true)
	month := d.MustAddCategory("month", true)
	quarter := d.MustAddCategory("quarter", true)
	year := d.MustAddCategory("year", true)
	for _, e := range [][2]CategoryID{{day, week}, {day, month}, {month, quarter}, {quarter, year}} {
		if err := d.Contains(e[0], e[1]); err != nil {
			panic(err)
		}
	}
}

// TestAncestorColumnsMatchParentWalk builds seeded dimensions the way a
// stream does, one value at a time and in no category order, with refused
// values among the accepted ones, over random category DAGs and the Time
// DAG. After every AddValue the new value's category, ancestor row and
// order agree with a walk over ParentsOf, and a refusal changes no column;
// at the end every value is checked again.
func TestAncestorColumnsMatchParentWalk(t *testing.T) {
	for _, dag := range []struct {
		name  string
		build func(*rand.Rand, *Dimension, int)
	}{{"random", randomCategoryDAG}, {"time", timeDAG}} {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("%s/%d", dag.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				d := NewDimension("D")
				dag.build(rng, d, 1+rng.Intn(6))
				d.MustFinalize()
				m := newDimChecker(t, d)
				m.finalized()
				refused := 0
				for step := 0; step < 300; step++ {
					cat := CategoryID(rng.Intn(d.NumCategories() - 1)) // the top holds only ⊤
					name := fmt.Sprint(rng.Intn(120))
					n := d.NumValues()
					m.addValue(cat, name, m.parents(cat, func() int { return rng.Intn(1 << 16) }))
					if d.NumValues() == n {
						refused++
					}
				}
				m.check()
				if refused == 0 || refused == 300 {
					t.Fatalf("%d of 300 values refused: the build must mix refusals and accepted values", refused)
				}
			})
		}
	}
}

// FuzzDimensionAddValue decodes its input into a sequence of AddCategory,
// Contains, Finalize and AddValue calls, each checked for the error its
// phase and arguments call for; after every AddValue the dimension's
// columns are held to the walk over ParentsOf as in
// TestAncestorColumnsMatchParentWalk, and a refused AddValue must leave
// them unchanged.
func FuzzDimensionAddValue(f *testing.F) {
	f.Add([]byte{0, 0, 4, 1, 8, 1, 0, 1, 2, 1, 0, 2, 2, 3, 2, 1, 0, 3, 0, 2, 0, 3, 1, 3, 2, 0, 1})
	// A diamond, c0 < {c1, c2} < c3, then a c0 value whose two parents
	// roll up to different c3 values (refused) and one whose parents agree.
	f.Add([]byte{
		0, 0, 0, 1, 0, 2, 0, 3, // AddCategory c0..c3
		1, 1, 2, 1, 1, 3, 1, 2, 4, 1, 3, 4, // Contains c0<c1, c0<c2, c1<c3, c2<c3
		2,             // Finalize: the top is c4
		3, 3, 0, 0, 0, // c3 "0" (id 1)
		3, 3, 1, 0, 0, // c3 "1" (id 2)
		3, 1, 0, 0, 0, // c1 "0" under c3 "0" (id 3)
		3, 2, 0, 0, 1, // c2 "0" under c3 "1" (id 4)
		3, 0, 0, 0, 0, 0, 0, // c0 "0" under ids 3 and 4: conflicting, refused
		3, 2, 1, 0, 0, // c2 "1" under c3 "0" (id 5)
		3, 0, 1, 0, 0, 0, 1, // c0 "1" under ids 3 and 5 (id 6)
	})
	f.Add([]byte{3, 1, 0, 2, 2, 0, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		d := NewDimension("F")
		m := newDimChecker(t, d)
		for steps := 0; len(ops) > 0 && steps < 256; steps++ {
			switch op := next(); op % 4 {
			case 0:
				name := fmt.Sprintf("c%d", next()%80)
				_, dup := d.CategoryByName(name)
				want := d.Finalized() || dup || d.NumCategories() >= maxCategories
				if _, err := d.AddCategory(name, op&4 != 0); (err != nil) != want {
					t.Fatalf("AddCategory(%q) error = %v, want an error: %v", name, err, want)
				}
			case 1:
				n := d.NumCategories()
				lo, hi := CategoryID(next()%(n+2)-1), CategoryID(next()%(n+2)-1)
				want := d.Finalized() || lo < 0 || hi < 0 || int(lo) >= n || int(hi) >= n || lo == hi
				if err := d.Contains(lo, hi); (err != nil) != want {
					t.Fatalf("Contains(%d, %d) error = %v, want an error: %v", lo, hi, err, want)
				}
			case 2:
				was := d.Finalized()
				if err := d.Finalize(); err != nil {
					if !was {
						return // a cyclic or bottomless category order: nothing to add values to
					}
					continue
				}
				if was {
					t.Fatal("a second Finalize succeeded")
				}
				m.finalized()
			case 3:
				cat := CategoryID(next() % (d.NumCategories() + 1))
				if !d.Finalized() {
					before := d.NumValues()
					if _, err := d.AddValue(cat, "v", 0, nil); err == nil || d.NumValues() != before {
						t.Fatalf("AddValue before Finalize: err %v, %d values, want a refusal", err, d.NumValues())
					}
					continue
				}
				m.addValue(cat, fmt.Sprint(next()%8), m.parents(cat, next))
			}
		}
		if d.Finalized() {
			m.check()
		}
	})
}
