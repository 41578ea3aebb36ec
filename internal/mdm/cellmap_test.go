package mdm

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"
)

// cellMapDims are the cell lengths the table is checked at: one value of
// 63 bits, two of 31 (every non-negative ValueID packs), three of 21, the
// last length with a byte per value and two without, the last length
// that packs at all and two that do not.
var cellMapDims = []int{1, 2, 3, 7, 8, 9, 63, 64, 65}

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

// runCell fills cell with cell r < 1024 of run s: the bits of a number
// unique to (s, r) spread over the values, as many per value as pack at
// this length (31 where every value packs, one where none does), so the
// runs hold 4 096 distinct cells at every length and, where cells pack,
// pack them all. Every seventh cell of a run carries NoValue and takes
// the string key instead.
func runCell(cell []ValueID, s, r int) {
	w := min(packWidth(len(cell)), 31)
	if w == 0 {
		w = 1
	}
	u := uint64(s<<10|r) * 0x9e3779b1
	for i := range cell {
		cell[i] = ValueID(u >> (uint(i) * w) & (1<<w - 1))
	}
	if r%7 == 6 {
		cell[0] = NoValue
	}
}

// naiveKey is the key of the plain map the table is checked against: the
// cell's values in an array as long as the longest cell checked.
type naiveKey [65]ValueID

func naiveKeyOf(cell []ValueID) (k naiveKey) {
	copy(k[:], cell)
	return k
}

// runCellMapOps interprets ops as puts, gets, deletes, clones and rewrites
// on a CellMap and on a plain map keyed by the cell's values, and fails
// where the two disagree. Single-cell ops draw from the palette, which
// holds about a hundred distinct cells; run ops put, probe and delete up
// to 1 024 cells of one of four runs at a time, so that a stream reaches
// the thousands of cells a cube index holds, with the long probe chains,
// chains that wrap past the last slot and deletes inside a chain that
// only a table that size has; a run op's y byte is taken modulo runs, so
// runs = 256 lets it reach all 1 024 cells and a smaller runs caps it at
// 4·runs. A clone takes over as the table under test and the one it was
// cloned from is checked, at the end, to be as it was left.
func runCellMapOps(t *testing.T, nDims int, ops []byte, runs int) {
	t.Helper()
	palette := cellPalette(nDims)
	type pair struct {
		m     *CellMap[int32]
		naive map[naiveKey]int32
	}
	cur := pair{NewCellMap[int32](nDims), map[naiveKey]int32{}}
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
			if want, ok := p.naive[naiveKeyOf(c)]; !ok || want != v {
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
	get := func(key naiveKey) {
		t.Helper()
		got, ok := cur.m.Get(cell)
		want, held := cur.naive[key]
		if ok != held || got != want {
			t.Fatalf("Get(%v) = %d, %v; want %d, %v", cell, got, ok, want, held)
		}
	}
	for len(ops) > 0 {
		op := next() % 8
		x, y := next(), next()
		for i := range cell {
			cell[i] = palette[(x+i*y)%len(palette)]
		}
		key := naiveKeyOf(cell)
		switch op {
		case 0, 1:
			v := int32(next())
			cur.m.Put(cell, v)
			cur.naive[key] = v
		case 2:
			get(key)
		case 3:
			cur.m.Delete(cell)
			delete(cur.naive, key)
		case 4:
			left = append(left, cur)
			cur = pair{cur.m.Clone(), maps.Clone(cur.naive)}
		case 5:
			k := int32(x%4 + 2)
			fn := func(v int32) (int32, bool) { return v + 1, v%k != 0 }
			cur.m.Rewrite(fn)
			for c, v := range cur.naive {
				if nv, keep := fn(v); keep {
					cur.naive[c] = nv
				} else {
					delete(cur.naive, c)
				}
			}
			check(cur, "after a rewrite")
		case 6:
			// Put the first 4(y%runs)+4 cells of run x%4.
			for r := range 4*(y%runs) + 4 {
				runCell(cell, x%4, r)
				cur.m.Put(cell, int32(r+x))
				cur.naive[naiveKeyOf(cell)] = int32(r + x)
			}
		case 7:
			// Walk the first 4(y%runs)+4 cells of run x%4, deleting
			// every (x%3+2)-th and probing the rest.
			for r := range 4*(y%runs) + 4 {
				runCell(cell, x%4, r)
				key := naiveKeyOf(cell)
				if r%(x%3+2) == 0 {
					cur.m.Delete(cell)
					delete(cur.naive, key)
				} else {
					get(key)
				}
			}
		}
		if cur.m.Len() != len(cur.naive) {
			t.Fatalf("after op %d: %d cells held, want %d", op, cur.m.Len(), len(cur.naive))
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
	// One stream at the size of a cube index: four runs of 1 024 cells, a
	// clone, deletes through every run, a rewrite, more deletes at other
	// strides, part of a run put back, and every cell probed.
	var big []byte
	for x := 0; x < 4; x++ {
		big = append(big, 6, byte(x), 255)
	}
	big = append(big, 4, 0, 0)
	for x := 0; x < 4; x++ {
		big = append(big, 7, byte(x), 255)
	}
	big = append(big, 5, 1, 0)
	for x := 4; x < 8; x++ {
		big = append(big, 7, byte(x), 255)
	}
	big = append(big, 6, 1, 127, 4, 0, 0)
	for x := 8; x < 12; x++ {
		big = append(big, 7, byte(x), 255)
	}
	return append(out, big)
}

// TestCellMapMatchesNaiveMap: over random and corner-case op streams, at
// every cell length, the table agrees with a plain map keyed by the
// cell's values, and a table that was cloned from is independent of its
// clone. The corner streams reach 1 024 cells a run; the random ones cap
// a run op at 256 cells, so most of their time goes to single-cell ops.
func TestCellMapMatchesNaiveMap(t *testing.T) {
	for _, nDims := range cellMapDims {
		t.Run(fmt.Sprintf("%ddims", nDims), func(t *testing.T) {
			for _, ops := range cellMapCorners() {
				runCellMapOps(t, nDims, ops, 256)
			}
			rng := rand.New(rand.NewSource(int64(nDims)))
			for trial := 0; trial < 50; trial++ {
				ops := make([]byte, 40+rng.Intn(400))
				rng.Read(ops)
				runCellMapOps(t, nDims, ops, 64)
			}
		})
	}
}

// cellMapFuzzOps bounds a fuzzed op stream. One run op (three bytes)
// puts 1 024 cells, which grows the table past 1 024 slots, and every
// corner stream fits (the longest is 158 bytes), so the bound keeps the
// large-table regime and the fast single-cell seeds, while an input long
// enough to run dozens of run ops, and stall the minimizer, is skipped.
const cellMapFuzzOps = 160

// FuzzCellMap drives the same interpreter from fuzzed bytes: the first
// picks the cell length, the rest is the op stream (at most
// cellMapFuzzOps bytes).
func FuzzCellMap(f *testing.F) {
	for _, ops := range cellMapCorners() {
		for j := range cellMapDims {
			f.Add(byte(j), ops)
		}
	}
	f.Fuzz(func(t *testing.T, dims byte, ops []byte) {
		if len(ops) > cellMapFuzzOps {
			return
		}
		runCellMapOps(t, cellMapDims[int(dims)%len(cellMapDims)], ops, 256)
	})
}

// TestCellMapRouting pins which cells pack: at three dimensions a value
// below 1<<21 does, that value and every negative one does not, and above
// 63 dimensions nothing does.
func TestCellMapRouting(t *testing.T) {
	m := NewCellMap[int](3)
	m.Put([]ValueID{1<<21 - 1, 0, 5}, 1)
	if m.n != 1 || len(m.str) != 0 {
		t.Fatalf("a cell of in-range values: %d packed, %d by string; want 1, 0", m.n, len(m.str))
	}
	m.Put([]ValueID{1 << 21, 0, 5}, 2)
	m.Put([]ValueID{0, NoValue, 5}, 3)
	if m.n != 1 || len(m.str) != 2 {
		t.Fatalf("a wide and a negative value: %d packed, %d by string; want 1, 2", m.n, len(m.str))
	}
	wide := NewCellMap[int](64)
	wide.Put(make([]ValueID, 64), 1)
	if wide.n != 0 || len(wide.str) != 1 {
		t.Fatalf("64 dimensions: %d packed, %d by string; want 0, 1", wide.n, len(wide.str))
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

// TestCellMapRewrite: a rewrite moves the packed survivors into the
// smallest table that holds them at most three quarters full, so one that
// drops most entries gives their slots back and one that drops them all
// leaves no table; the string-keyed entries are rewritten beside them.
func TestCellMapRewrite(t *testing.T) {
	for _, tc := range []struct{ every, left, slots int }{
		{1, 64, 128}, // 64 cells fill 64 slots past three quarters
		{4, 16, 32},
		{64, 1, minSlots},
		{0, 0, 0}, // nothing survives
	} {
		m := NewCellMap[int](3)
		for i := 0; i < 64; i++ {
			m.Put([]ValueID{ValueID(i), 1, 2}, i)
			m.Put([]ValueID{ValueID(1<<21 + i), 1, 2}, i)
		}
		if len(m.keys) != 128 {
			t.Fatalf("64 packed cells in %d slots, want 128", len(m.keys))
		}
		keep := func(v int) bool { return tc.every > 0 && v%tc.every == 0 }
		m.Rewrite(func(v int) (int, bool) { return v * 10, keep(v) })
		if len(m.keys) != tc.slots || len(m.vals) != tc.slots {
			t.Errorf("every %d: %d key and %d value slots after the rewrite, want %d", tc.every, len(m.keys), len(m.vals), tc.slots)
		}
		if m.n != tc.left || len(m.str) != tc.left {
			t.Fatalf("every %d: %d packed and %d string entries left, want %d each", tc.every, m.n, len(m.str), tc.left)
		}
		for i := 0; i < 64; i++ {
			for _, c := range [][]ValueID{{ValueID(i), 1, 2}, {ValueID(1<<21 + i), 1, 2}} {
				v, ok := m.Get(c)
				if ok != keep(i) || ok && v != i*10 {
					t.Fatalf("every %d: Get(%v) = %d, %v", tc.every, c, v, ok)
				}
			}
		}
	}
}
