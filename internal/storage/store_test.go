package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dimred/internal/mdm"
)

func newTestStore() *Store {
	return New(Layout{DimCols: 2, MeasCols: 3})
}

func TestAppendScan(t *testing.T) {
	s := newTestStore()
	r1, err := s.Append([]mdm.ValueID{1, 2}, []float64{1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Append([]mdm.ValueID{3, 4}, []float64{4, 5, 6}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows() != 2 || s.Live() != 2 {
		t.Fatal("counts wrong")
	}
	if s.Ref(r2, 1) != 4 || s.Measure(r1, 2) != 3 || s.Base(r2) != 2 {
		t.Error("reads wrong")
	}
	refs := s.Refs(r1, nil)
	if refs[0] != 1 || refs[1] != 2 {
		t.Error("Refs wrong")
	}
	var seen []RowID
	s.Scan(func(r RowID) bool { seen = append(seen, r); return true })
	if len(seen) != 2 {
		t.Errorf("scan saw %v", seen)
	}
	// Early stop.
	n := 0
	s.Scan(func(r RowID) bool { n++; return false })
	if n != 1 {
		t.Error("scan did not stop")
	}
}

// TestScanRange: ranges that tile the rows visit, in order, exactly the
// live rows a whole scan visits.
func TestScanRange(t *testing.T) {
	s := newTestStore()
	for i := 0; i < 10; i++ {
		if _, err := s.Append([]mdm.ValueID{mdm.ValueID(i), 0}, []float64{1, 2, 3}, 1); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete(0)
	s.Delete(4)
	s.Delete(9)
	var whole, tiled []RowID
	s.Scan(func(r RowID) bool { whole = append(whole, r); return true })
	for _, b := range [][2]int{{0, 3}, {3, 4}, {4, 4}, {4, 10}} {
		s.ScanRange(b[0], b[1], func(r RowID) bool { tiled = append(tiled, r); return true })
	}
	if !slices.Equal(whole, tiled) || len(whole) != 7 {
		t.Fatalf("tiled ranges visit %v, the whole scan %v", tiled, whole)
	}
}

func TestAppendShapeError(t *testing.T) {
	s := newTestStore()
	if _, err := s.Append([]mdm.ValueID{1}, []float64{1, 2, 3}, 1); err == nil {
		t.Error("short refs accepted")
	}
	if _, err := s.Append([]mdm.ValueID{1, 2}, []float64{1}, 1); err == nil {
		t.Error("short measures accepted")
	}
}

func TestDeleteAndBytes(t *testing.T) {
	s := newTestStore()
	rb := s.Layout().RowBytes()
	if rb != 4*2+8*3+8 {
		t.Errorf("RowBytes = %d", rb)
	}
	var rows []RowID
	for i := 0; i < 10; i++ {
		r, _ := s.Append([]mdm.ValueID{mdm.ValueID(i), 0}, []float64{0, 0, 0}, 1)
		rows = append(rows, r)
	}
	if s.Bytes() != 10*rb {
		t.Errorf("Bytes = %d", s.Bytes())
	}
	s.Delete(rows[3])
	s.Delete(rows[3]) // idempotent
	s.Delete(RowID(99))
	s.Delete(RowID(-1))
	if s.Live() != 9 || s.Bytes() != 9*rb {
		t.Errorf("after delete: live=%d bytes=%d", s.Live(), s.Bytes())
	}
	if s.Alive(rows[3]) || !s.Alive(rows[4]) {
		t.Error("Alive wrong")
	}
	count := 0
	s.Scan(func(r RowID) bool {
		if r == rows[3] {
			t.Error("scan visited dead row")
		}
		count++
		return true
	})
	if count != 9 {
		t.Errorf("scan count = %d", count)
	}
}

func TestSetMeasureAndAddBase(t *testing.T) {
	s := newTestStore()
	r, _ := s.Append([]mdm.ValueID{0, 0}, []float64{1, 2, 3}, 1)
	s.SetMeasure(r, 1, 42)
	s.AddBase(r, 4)
	if s.Measure(r, 1) != 42 || s.Base(r) != 5 {
		t.Error("update wrong")
	}
}

func TestCompact(t *testing.T) {
	s := newTestStore()
	var rows []RowID
	for i := 0; i < 6; i++ {
		r, _ := s.Append([]mdm.ValueID{mdm.ValueID(i), mdm.ValueID(i * 10)}, []float64{float64(i), 0, 0}, int64(i+1))
		rows = append(rows, r)
	}
	s.Delete(rows[0])
	s.Delete(rows[2])
	s.Delete(rows[5])
	remap := s.Compact()
	if s.Rows() != 3 || s.Live() != 3 {
		t.Fatalf("after compact rows=%d live=%d", s.Rows(), s.Live())
	}
	if remap[0] != -1 || remap[2] != -1 || remap[5] != -1 {
		t.Error("dead rows should remap to -1")
	}
	// Surviving rows keep their data.
	for old, newID := range remap {
		if newID < 0 {
			continue
		}
		if s.Ref(newID, 0) != mdm.ValueID(old) || s.Base(newID) != int64(old+1) {
			t.Errorf("row %d remapped to %d with wrong data", old, newID)
		}
	}
	// Compacting an already-compact store is the identity mapping.
	remap2 := s.Compact()
	for i, r := range remap2 {
		if int(r) != i {
			t.Error("second compact moved rows")
		}
	}
}

func TestCompactPropertyPreservesLiveRows(t *testing.T) {
	f := func(kills []uint8) bool {
		s := newTestStore()
		const n = 40
		for i := 0; i < n; i++ {
			if _, err := s.Append([]mdm.ValueID{mdm.ValueID(i), 0}, []float64{float64(i), 0, 0}, 1); err != nil {
				return false
			}
		}
		for _, k := range kills {
			s.Delete(RowID(int(k) % n))
		}
		live := s.Live()
		var sum float64
		s.Scan(func(r RowID) bool { sum += s.Measure(r, 0); return true })
		s.Compact()
		if s.Live() != live || s.Rows() != live {
			return false
		}
		var sum2 float64
		s.Scan(func(r RowID) bool { sum2 += s.Measure(r, 0); return true })
		return sum == sum2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDimensionBytesGrowsWithValues(t *testing.T) {
	d := mdm.NewDimension("X")
	bot := d.MustAddCategory("leaf", false)
	d.MustFinalize()
	before := DimensionBytes(d)
	d.MustAddValue(bot, "some-value", 0, nil)
	after := DimensionBytes(d)
	if after <= before {
		t.Errorf("DimensionBytes did not grow: %d -> %d", before, after)
	}
}

// TestCompactReturnsMemory: a compaction that leaves a quarter of the
// allocated slots or fewer moves the columns to right-sized arrays; one
// that leaves more keeps the arrays. Row ids and the remap are the same
// either way.
func TestCompactReturnsMemory(t *testing.T) {
	fill := func(n int) *Store {
		s := newTestStore()
		for i := 0; i < n; i++ {
			if _, err := s.Append([]mdm.ValueID{mdm.ValueID(i), mdm.ValueID(2 * i)}, []float64{float64(i), 1, 2}, int64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	caps := func(s *Store) []int {
		return []int{cap(s.base), cap(s.dead), cap(s.refs[0]), cap(s.refs[1]), cap(s.meas[0]), cap(s.meas[1]), cap(s.meas[2])}
	}
	const n = 4096
	for _, tc := range []struct {
		name   string
		keep   int // every keep-th row survives
		shrunk bool
	}{
		{"folded away", 16, true},
		{"half left", 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := fill(n)
			before := caps(s)
			for i := 0; i < n; i++ {
				if i%tc.keep != 0 {
					s.Delete(RowID(i))
				}
			}
			live := s.Live()
			remap := s.Compact()
			if s.Rows() != live || s.Dead() != 0 {
				t.Fatalf("after compact rows=%d dead=%d, want %d/0", s.Rows(), s.Dead(), live)
			}
			for old, id := range remap {
				switch {
				case old%tc.keep != 0:
					if id != -1 {
						t.Fatalf("dead row %d remapped to %d", old, id)
					}
				case int(id) != old/tc.keep:
					t.Fatalf("row %d remapped to %d, want %d", old, id, old/tc.keep)
				case s.Ref(id, 0) != mdm.ValueID(old) || s.Ref(id, 1) != mdm.ValueID(2*old) ||
					s.Measure(id, 0) != float64(old) || s.Base(id) != int64(old+1) || !s.Alive(id):
					t.Fatalf("row %d -> %d lost its data", old, id)
				}
			}
			after := caps(s)
			if tc.shrunk && slices.Max(after) > 2*live {
				t.Errorf("capacities %v after folding %d rows to %d, want at most %d", after, n, live, 2*live)
			}
			if !tc.shrunk && !slices.Equal(after, before) {
				t.Errorf("capacities moved %v -> %v with %d of %d rows left", before, after, live, n)
			}
			// The compacted store keeps working as a store.
			id, err := s.Append([]mdm.ValueID{7, 8}, []float64{1, 2, 3}, 1)
			if err != nil || int(id) != live || !s.Alive(id) {
				t.Fatalf("Append after compact: id=%d err=%v", id, err)
			}
		})
	}
}

// sameRows fails unless the two stores hold the same slots: refs,
// measures, base count and tombstone of every row, dead ones included.
func sameRows(t *testing.T, step string, got, want *Store) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Dead() != want.Dead() {
		t.Fatalf("%s: %d rows (%d dead), want %d (%d)", step, got.Rows(), got.Dead(), want.Rows(), want.Dead())
	}
	for r := RowID(0); int(r) < want.Rows(); r++ {
		if got.Alive(r) != want.Alive(r) || got.Base(r) != want.Base(r) || !slices.Equal(got.Refs(r, nil), want.Refs(r, nil)) {
			t.Fatalf("%s: row %d differs", step, r)
		}
		for j := 0; j < want.Layout().MeasCols; j++ {
			if got.Measure(r, j) != want.Measure(r, j) {
				t.Fatalf("%s: row %d measure %d = %v, want %v", step, r, j, got.Measure(r, j), want.Measure(r, j))
			}
		}
	}
}

// TestLevelFromJournal drives two stores the way the commit protocol
// drives the two sides: each round one is written — every mutator, one
// kind at a time so each journal record is needed on its own — and the
// other brought level from the writer's journal, falling back to a clone
// exactly when the journal says it must. After every round the two are
// equal slot for slot, and the roles swap.
func TestLevelFromJournal(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	loaded := newTestStore()
	for i := 0; i < 400; i++ {
		if _, err := loaded.Append([]mdm.ValueID{mdm.ValueID(i), 1}, []float64{1, 2, 3}, 1); err != nil {
			t.Fatal(err)
		}
	}
	// A clone's journal starts where the clone was taken.
	written, level := loaded.Clone(), loaded.Clone()
	fallbacks := 0
	for round := 0; round < 200; round++ {
		live := func() RowID {
			for {
				if r := RowID(rng.Intn(written.Rows())); written.Alive(r) {
					return r
				}
			}
		}
		var step string
		wantFallback := false
		switch op := rng.Intn(6); op {
		case 0:
			step = "SetMeasure"
			for k := 0; k < 5; k++ {
				written.SetMeasure(live(), rng.Intn(3), rng.Float64())
			}
		case 1:
			step = "AddBase"
			for k := 0; k < 5; k++ {
				written.AddBase(live(), int64(1+rng.Intn(4)))
			}
		case 2:
			step = "Delete"
			for k := 0; k < 3; k++ {
				written.Delete(live())
			}
		case 3:
			// New rows, then writes to them: the tail carries both.
			step = "Append"
			for k := 0; k < 8; k++ {
				r, err := written.Append([]mdm.ValueID{mdm.ValueID(rng.Intn(1000)), 2}, []float64{4, 5, 6}, 2)
				if err != nil {
					t.Fatal(err)
				}
				if k%2 == 0 {
					written.SetMeasure(r, 0, 9)
					written.AddBase(r, 1)
				}
				if k == 7 {
					written.Delete(r)
				}
			}
		case 4:
			step = "Compact"
			written.Delete(live())
			written.Compact()
			wantFallback = true
		default:
			// More rows touched than a quarter of the store: the list is
			// dropped, not grown.
			step = "touch a third"
			for r := RowID(0); int(r) < written.Rows(); r += 3 {
				if written.Alive(r) {
					written.AddBase(r, 1)
				}
			}
			mark, touched, ok := written.Journal()
			if ok || touched != nil {
				t.Fatalf("round %d: journal kept %d of %d rows, ok=%v; want it dropped past a quarter", round, len(touched), mark, ok)
			}
			wantFallback = true
		}
		if _, touched, ok := written.Journal(); ok && len(touched)*4 > written.Rows() {
			t.Fatalf("round %d (%s): journal lists %d rows of %d", round, step, len(touched), written.Rows())
		}
		rows, ok := level.LevelFrom(written)
		if ok == wantFallback {
			t.Fatalf("round %d (%s): LevelFrom ok=%v, want %v", round, step, ok, !wantFallback)
		}
		if !ok {
			fallbacks++
			level = written.Clone()
		} else if rows == 0 || rows > 16 {
			t.Fatalf("round %d (%s): levelled %d rows, want 1..16", round, step, rows)
		}
		sameRows(t, fmt.Sprintf("round %d (%s)", round, step), level, written)
		// A levelled store's journal starts afresh.
		if mark, touched, ok := level.Journal(); !ok || mark != level.Rows() || len(touched) != 0 {
			t.Fatalf("round %d (%s): levelled store's journal: mark=%d of %d rows, %d touched, ok=%v", round, step, mark, level.Rows(), len(touched), ok)
		}
		written, level = level, written
	}
	if fallbacks == 0 || fallbacks == 200 {
		t.Fatalf("%d of 200 rounds fell back to a clone", fallbacks)
	}

	// A store that is not at the writer's mark is refused, untouched.
	stranger := newTestStore()
	if _, ok := stranger.LevelFrom(written); ok || stranger.Rows() != 0 {
		t.Fatalf("LevelFrom levelled a store that never equalled its source (ok=%v, %d rows)", ok, stranger.Rows())
	}
}
