package mdm

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// cellMapDims are the cell lengths the table is checked at: one value of
// 64 bits, two of 32 (every non-negative ValueID packs), the last length
// with a byte per value and the first without, and one past the 64 that
// pack at all.
var cellMapDims = []int{1, 2, 3, 8, 9, 65}

// cellPalette lists the values cells are drawn from: small ids, the last
// id that packs at this length, the first that does not, negative ids
// (NoValue is -1) and the ends of the type.
func cellPalette(nDims int) []ValueID {
	vals := []ValueID{0, 1, 2, 3, NoValue, -2, math.MaxInt32, math.MinInt32}
	if w := packWidth(nDims); w > 0 && w < 31 {
		lim := ValueID(1) << w
		vals = append(vals, lim-1, lim, lim+1)
	}
	return vals
}

// runCellMapOps interprets ops as puts, gets, deletes, clones and rewrites
// on a CellMap and on a map keyed by the cell's printed form, and fails
// where the two disagree. A clone takes over as the table under test and
// the one it was cloned from is checked, at the end, to be as it was left.
func runCellMapOps(t *testing.T, nDims int, ops []byte) {
	t.Helper()
	palette := cellPalette(nDims)
	type pair struct {
		m     *CellMap[int32]
		naive map[string]int32
	}
	cur := pair{NewCellMap[int32](nDims), map[string]int32{}}
	var left []pair
	cell := make([]ValueID, nDims)
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	check := func(p pair, when string) {
		t.Helper()
		if p.m.Len() != len(p.naive) {
			t.Fatalf("%s: %d cells held, want %d", when, p.m.Len(), len(p.naive))
		}
		seen := 0
		for c, v := range p.m.All() {
			seen++
			if want, ok := p.naive[fmt.Sprint(c)]; !ok || want != v {
				t.Fatalf("%s: All yields %v=%d, want %d (held=%v)", when, c, v, want, ok)
			}
			if got, ok := p.m.Get(c); !ok || got != v {
				t.Fatalf("%s: All yields %v=%d but Get says %d, %v", when, c, v, got, ok)
			}
		}
		if seen != len(p.naive) {
			t.Fatalf("%s: All yields %d cells, want %d", when, seen, len(p.naive))
		}
	}
	for len(ops) > 0 {
		op := next() % 6
		x, y := next(), next()
		for i := range cell {
			cell[i] = palette[(x+i*y)%len(palette)]
		}
		key := fmt.Sprint(cell)
		switch op {
		case 0, 1:
			v := int32(next())
			cur.m.Put(cell, v)
			cur.naive[key] = v
		case 2:
			got, ok := cur.m.Get(cell)
			want, held := cur.naive[key]
			if ok != held || got != want {
				t.Fatalf("Get(%v) = %d, %v; want %d, %v", cell, got, ok, want, held)
			}
		case 3:
			cur.m.Delete(cell)
			delete(cur.naive, key)
		case 4:
			left = append(left, cur)
			cur = pair{cur.m.Clone(), maps.Clone(cur.naive)}
		case 5:
			k := int32(x%4 + 2)
			fn := func(v int32) (int32, bool) { return v + 1, v%k != 0 }
			cur.m.Rewrite(y%2 == 0, fn)
			for c, v := range cur.naive {
				if nv, keep := fn(v); keep {
					cur.naive[c] = nv
				} else {
					delete(cur.naive, c)
				}
			}
		}
		if cur.m.Len() != len(cur.naive) {
			t.Fatalf("after op %d on %v: %d cells held, want %d", op, cell, cur.m.Len(), len(cur.naive))
		}
	}
	check(cur, "at the end")
	for i, p := range left {
		check(p, fmt.Sprintf("table left at clone %d", i))
	}
}

// cellMapCorners are op streams that walk every palette value through
// put, get, clone, delete, rewrite and get again; they seed the fuzz
// corpus too.
func cellMapCorners() [][]byte {
	var out [][]byte
	for y := 0; y < 3; y++ {
		var ops []byte
		for x := 0; x < 11; x++ {
			ops = append(ops, 0, byte(x), byte(y), byte(x+1), 2, byte(x), byte(y))
		}
		ops = append(ops, 4, 0, 0)
		for x := 0; x < 11; x += 2 {
			ops = append(ops, 3, byte(x), byte(y), 2, byte(x), byte(y))
		}
		ops = append(ops, 5, 1, byte(y), 4, 0, 0, 5, 2, byte(y+1))
		for x := 0; x < 11; x++ {
			ops = append(ops, 2, byte(x), byte(y))
		}
		out = append(out, ops)
	}
	return out
}

// TestCellMapMatchesNaiveMap: over random and corner-case op streams, at
// every cell length, the table agrees with a plain map keyed by the
// printed cell, and a table that was cloned from is independent of its
// clone.
func TestCellMapMatchesNaiveMap(t *testing.T) {
	for _, nDims := range cellMapDims {
		t.Run(fmt.Sprintf("%ddims", nDims), func(t *testing.T) {
			for _, ops := range cellMapCorners() {
				runCellMapOps(t, nDims, ops)
			}
			rng := rand.New(rand.NewSource(int64(nDims)))
			for trial := 0; trial < 50; trial++ {
				ops := make([]byte, 40+rng.Intn(400))
				rng.Read(ops)
				runCellMapOps(t, nDims, ops)
			}
		})
	}
}

// FuzzCellMap drives the same interpreter from fuzzed bytes: the first
// picks the cell length, the rest is the op stream.
func FuzzCellMap(f *testing.F) {
	for _, ops := range cellMapCorners() {
		for j := range cellMapDims {
			f.Add(byte(j), ops)
		}
	}
	f.Fuzz(func(t *testing.T, dims byte, ops []byte) {
		runCellMapOps(t, cellMapDims[int(dims)%len(cellMapDims)], ops)
	})
}

// TestCellMapRouting pins which cells pack: at three dimensions a value
// below 1<<21 does, that value and every negative one does not, and above
// 64 dimensions nothing does.
func TestCellMapRouting(t *testing.T) {
	m := NewCellMap[int](3)
	m.Put([]ValueID{1<<21 - 1, 0, 5}, 1)
	if len(m.packed) != 1 || len(m.str) != 0 {
		t.Fatalf("a cell of in-range values: %d packed, %d by string; want 1, 0", len(m.packed), len(m.str))
	}
	m.Put([]ValueID{1 << 21, 0, 5}, 2)
	m.Put([]ValueID{0, NoValue, 5}, 3)
	if len(m.packed) != 1 || len(m.str) != 2 {
		t.Fatalf("a wide and a negative value: %d packed, %d by string; want 1, 2", len(m.packed), len(m.str))
	}
	wide := NewCellMap[int](65)
	wide.Put(make([]ValueID, 65), 1)
	if len(wide.packed) != 0 || len(wide.str) != 1 {
		t.Fatalf("65 dimensions: %d packed, %d by string; want 0, 1", len(wide.packed), len(wide.str))
	}
	cell := []ValueID{1<<21 - 1, 0, 5}
	if allocs := testing.AllocsPerRun(100, func() { m.Put(cell, 4); m.Get(cell) }); allocs != 0 {
		t.Fatalf("a packed cell cost %.1f allocations per put and get, want 0", allocs)
	}
	// A probe by string key builds the key on the stack.
	cell = []ValueID{0, NoValue, 5}
	if allocs := testing.AllocsPerRun(100, func() { m.Get(cell) }); allocs != 0 {
		t.Fatalf("a string-keyed probe cost %.1f allocations, want 0", allocs)
	}
}

// TestCellMapRewrite: fresh moves the survivors into new maps, sized to
// them; otherwise the maps are rewritten where they are.
func TestCellMapRewrite(t *testing.T) {
	for _, fresh := range []bool{true, false} {
		m := NewCellMap[int](3)
		for i := 0; i < 64; i++ {
			m.Put([]ValueID{ValueID(i), 1, 2}, i)
			m.Put([]ValueID{ValueID(1<<21 + i), 1, 2}, i)
		}
		packed, str := reflect.ValueOf(m.packed).Pointer(), reflect.ValueOf(m.str).Pointer()
		m.Rewrite(fresh, func(v int) (int, bool) { return v * 10, v%4 == 0 })
		moved := reflect.ValueOf(m.packed).Pointer() != packed && reflect.ValueOf(m.str).Pointer() != str
		kept := reflect.ValueOf(m.packed).Pointer() == packed && reflect.ValueOf(m.str).Pointer() == str
		if fresh && !moved || !fresh && !kept {
			t.Errorf("fresh=%v: maps moved=%v kept=%v", fresh, moved, kept)
		}
		if len(m.packed) != 16 || len(m.str) != 16 {
			t.Fatalf("fresh=%v: %d packed and %d string entries left, want 16 each", fresh, len(m.packed), len(m.str))
		}
		for i := 0; i < 64; i++ {
			for _, c := range [][]ValueID{{ValueID(i), 1, 2}, {ValueID(1<<21 + i), 1, 2}} {
				v, ok := m.Get(c)
				if ok != (i%4 == 0) || ok && v != i*10 {
					t.Fatalf("fresh=%v: Get(%v) = %d, %v", fresh, c, v, ok)
				}
			}
		}
	}
}
