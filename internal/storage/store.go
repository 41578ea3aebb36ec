// Package storage provides an append-only columnar fact store with
// tombstone deletion and byte accounting. It is the physical layer
// beneath the subcube engine (Section 7's implementation strategy) and
// the baselines: dimension references are stored as 32-bit dictionary
// keys per column, measures as 64-bit floats per column, which matches
// how star-schema fact tables are laid out in practice and makes the
// paper's storage-gain claims measurable.
package storage

import (
	"fmt"

	"dimred/internal/mdm"
)

// RowID identifies a row within one Store.
type RowID int32

// Layout describes the per-row cost model of a store.
type Layout struct {
	DimCols  int // 4 bytes each
	MeasCols int // 8 bytes each
}

// rowOverhead models per-row metadata (row id, validity).
const rowOverhead = 8

// RowBytes returns the modeled size of one row.
func (l Layout) RowBytes() int64 {
	return int64(4*l.DimCols + 8*l.MeasCols + rowOverhead)
}

// Store is a columnar fact store. The zero value is unusable; construct
// with New.
type Store struct {
	layout Layout
	refs   [][]mdm.ValueID
	meas   [][]float64
	base   []int64
	dead   []bool
	nDead  int

	// The journal: what was written since the store last equalled its
	// counterpart on the other side of a left-right pair (Clone and
	// LevelFrom set the mark). Rows from mark on were appended since;
	// touched lists the rows below mark whose measures, base count or
	// tombstone changed, a row possibly more than once; reshaped says the
	// journal no longer describes the difference — Compact renumbered the
	// rows, or touched outgrew a quarter of the marked rows and was dropped
	// — and the counterpart must take a whole copy.
	mark     int
	touched  []RowID
	reshaped bool
}

// New creates an empty store with the given layout.
func New(layout Layout) *Store {
	return &Store{
		layout: layout,
		refs:   make([][]mdm.ValueID, layout.DimCols),
		meas:   make([][]float64, layout.MeasCols),
	}
}

// Layout returns the store's layout.
func (s *Store) Layout() Layout { return s.layout }

// Clone returns a deep copy of the store: same rows, same RowIDs, same
// tombstones, with no columns shared. Mutating either store afterwards
// leaves the other untouched. The copy's journal starts empty at its own
// row count: the two stores are level, whatever the receiver's journal
// says about a third.
func (s *Store) Clone() *Store {
	c := &Store{
		layout:   s.layout,
		refs:     make([][]mdm.ValueID, len(s.refs)),
		meas:     make([][]float64, len(s.meas)),
		base:     append([]int64(nil), s.base...),
		dead:     append([]bool(nil), s.dead...),
		nDead:    s.nDead,
		mark:     len(s.base),
		touched:  nil,
		reshaped: false,
	}
	for i, col := range s.refs {
		c.refs[i] = append([]mdm.ValueID(nil), col...)
	}
	for j, col := range s.meas {
		c.meas[j] = append([]float64(nil), col...)
	}
	return c
}

// Append adds a row and returns its id. base counts the user-level facts
// the row represents (at least 1).
func (s *Store) Append(refs []mdm.ValueID, meas []float64, base int64) (RowID, error) {
	if len(refs) != s.layout.DimCols || len(meas) != s.layout.MeasCols {
		return 0, fmt.Errorf("storage: Append: row shape (%d, %d) does not match layout (%d, %d)",
			len(refs), len(meas), s.layout.DimCols, s.layout.MeasCols)
	}
	if base < 1 {
		base = 1
	}
	id := RowID(len(s.base))
	for i := range s.refs {
		s.refs[i] = append(s.refs[i], refs[i])
	}
	for j := range s.meas {
		s.meas[j] = append(s.meas[j], meas[j])
	}
	s.base = append(s.base, base)
	s.dead = append(s.dead, false)
	return id, nil
}

// Delete tombstones a row. Deleting a dead or out-of-range row is a
// no-op.
func (s *Store) Delete(r RowID) {
	if r < 0 || int(r) >= len(s.dead) || s.dead[r] {
		return
	}
	s.touch(r)
	s.dead[r] = true
	s.nDead++
}

// touch journals a write to row r. Rows appended since the mark travel
// with the tail and a reshaped store is copied whole, so neither is
// listed; a row written several times in a row — a merge sets every
// measure, then the base count — is listed once.
func (s *Store) touch(r RowID) {
	if int(r) >= s.mark || s.reshaped {
		return
	}
	if n := len(s.touched); n > 0 && s.touched[n-1] == r {
		return
	}
	s.touched = append(s.touched, r)
	// Past a quarter of the marked rows the list saves little over the
	// whole copy, and a bulk load must not retain a row id per fact.
	if len(s.touched)*4 > s.mark {
		s.touched, s.reshaped = nil, true
	}
}

// Journal reports what was written since the store last equalled its
// counterpart: the row count then (rows from mark on are new) and the
// rows below it that changed, possibly with repeats. ok is false when the
// journal cannot say — the counterpart needs a whole copy. The slice is
// the store's own; do not modify it.
func (s *Store) Journal() (mark int, touched []RowID, ok bool) {
	return s.mark, s.touched, !s.reshaped
}

// LevelFrom makes s, which equalled src at src's mark, equal to src
// again by copying the rows src's journal names — measures, base count
// and tombstone of each touched row, every column of the appended tail —
// and starts s's own journal afresh there. It only reads src. It reports
// the rows copied, or false, with s untouched, when src's journal cannot
// carry s there (src was reshaped, or s is not at src's mark): the caller
// then replaces s with src.Clone().
func (s *Store) LevelFrom(src *Store) (rows int, ok bool) {
	mark, touched, ok := src.Journal()
	if !ok || len(s.base) != mark {
		return 0, false
	}
	for _, r := range touched {
		for j := range s.meas {
			s.meas[j][r] = src.meas[j][r]
		}
		s.base[r] = src.base[r]
		s.dead[r] = src.dead[r]
	}
	for i := range s.refs {
		s.refs[i] = append(s.refs[i], src.refs[i][mark:]...)
	}
	for j := range s.meas {
		s.meas[j] = append(s.meas[j], src.meas[j][mark:]...)
	}
	s.base = append(s.base, src.base[mark:]...)
	s.dead = append(s.dead, src.dead[mark:]...)
	s.nDead = src.nDead
	s.mark, s.touched, s.reshaped = len(s.base), s.touched[:0], false
	return len(touched) + len(src.base) - mark, true
}

// Alive reports whether the row exists and is not deleted.
func (s *Store) Alive(r RowID) bool {
	return r >= 0 && int(r) < len(s.dead) && !s.dead[r]
}

// Rows returns the total number of slots, dead or alive.
func (s *Store) Rows() int { return len(s.base) }

// Live returns the number of live rows.
func (s *Store) Live() int { return len(s.base) - s.nDead }

// Dead returns the number of tombstoned rows awaiting compaction.
func (s *Store) Dead() int { return s.nDead }

// Bytes returns the modeled size of the live data.
func (s *Store) Bytes() int64 { return int64(s.Live()) * s.layout.RowBytes() }

// Ref returns dimension column i of row r.
func (s *Store) Ref(r RowID, i int) mdm.ValueID { return s.refs[i][r] }

// Refs copies row r's dimension columns into dst (allocating if nil).
func (s *Store) Refs(r RowID, dst []mdm.ValueID) []mdm.ValueID {
	if dst == nil {
		dst = make([]mdm.ValueID, s.layout.DimCols)
	}
	for i := range s.refs {
		dst[i] = s.refs[i][r]
	}
	return dst
}

// Measure returns measure column j of row r.
func (s *Store) Measure(r RowID, j int) float64 { return s.meas[j][r] }

// SetMeasure overwrites measure column j of row r (used by in-place
// aggregation when rows merge into a subcube cell).
func (s *Store) SetMeasure(r RowID, j int, v float64) {
	s.touch(r)
	s.meas[j][r] = v
}

// Base returns the user-fact count of row r.
func (s *Store) Base(r RowID) int64 { return s.base[r] }

// AddBase increases the user-fact count of row r.
func (s *Store) AddBase(r RowID, n int64) {
	s.touch(r)
	s.base[r] += n
}

// Scan calls fn for every live row in id order until fn returns false.
func (s *Store) Scan(fn func(r RowID) bool) {
	for r := range s.base {
		if s.dead[r] {
			continue
		}
		if !fn(RowID(r)) {
			return
		}
	}
}

// Compact removes tombstoned rows, invalidating all previously issued
// RowIDs — the journal's among them, so it is dropped for a whole copy.
// It returns a mapping from old to new ids (mdm.NoValue-like -1
// for deleted rows) so indexes can be rebuilt. When the survivors fill a
// quarter of the allocated slots or less, the columns move to right-sized
// arrays: a reduction that folds a bulk load away must hand the memory
// back, not keep it as capacity.
func (s *Store) Compact() []RowID {
	remap := make([]RowID, len(s.base))
	w := 0
	for r := range s.base {
		if s.dead[r] {
			remap[r] = -1
			continue
		}
		remap[r] = RowID(w)
		if w != r {
			for i := range s.refs {
				s.refs[i][w] = s.refs[i][r]
			}
			for j := range s.meas {
				s.meas[j][w] = s.meas[j][r]
			}
			s.base[w] = s.base[r]
		}
		w++
	}
	shrink := w*4 <= cap(s.base)
	for i := range s.refs {
		s.refs[i] = cut(s.refs[i], w, shrink)
	}
	for j := range s.meas {
		s.meas[j] = cut(s.meas[j], w, shrink)
	}
	s.base = cut(s.base, w, shrink)
	s.dead = cut(s.dead, w, shrink)
	clear(s.dead)
	s.nDead = 0
	s.touched, s.reshaped = nil, true
	return remap
}

// cut returns the first w entries of col, copied to an array of exactly
// that size when shrink is set.
func cut[T any](col []T, w int, shrink bool) []T {
	if !shrink {
		return col[:w]
	}
	return append(make([]T, 0, w), col[:w]...)
}

// DimensionBytes models the storage of a dimension table: per value, its
// name, one 4-byte surrogate key, 8 bytes of ordering/metadata, and a
// 4-byte parent key per immediate ancestor category.
func DimensionBytes(d *mdm.Dimension) int64 {
	var total int64
	for c := 0; c < d.NumCategories(); c++ {
		cid := mdm.CategoryID(c)
		parents := int64(len(d.Anc(cid)))
		for _, v := range d.ValuesIn(cid) {
			total += int64(len(d.ValueName(v))) + 4 + 8 + 4*parents
		}
	}
	return total
}

// MOBytes models the storage of an MO's fact table under this package's
// layout.
func MOBytes(mo *mdm.MO) int64 {
	l := Layout{DimCols: mo.Schema().NumDims(), MeasCols: len(mo.Schema().Measures)}
	return int64(mo.Len()) * l.RowBytes()
}
