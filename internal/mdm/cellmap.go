package mdm

import (
	"iter"
	"maps"
)

// CellMap is the one cell-keyed table: the cube cell index, the group
// table of aggregate formation, the cross-cube combine and the MO set
// operators all find "the slot this cell already has" through it. A cell
// whose values fit in 64/nDims bits each packs into one uint64 (packCell)
// and costs no allocation to probe or insert; the rest — wider or
// negative values, more than 64 dimensions — go by their AppendCellKey
// string. A given cell always keys the same way, so it lives in exactly
// one of the two maps. Every cell must have the nDims values the table
// was made for.
//
// Get writes nothing, so a table inside a published snapshot may be
// probed from any number of goroutines; everything else needs the caller's
// exclusion, like a Go map.
type CellMap[V any] struct {
	nDims  int
	width  uint // bits per value of a packed key; 0 when nothing packs
	packed map[uint64]V
	str    map[string]V // nil until a cell that does not pack arrives
}

// NewCellMap returns an empty table for cells of nDims values.
func NewCellMap[V any](nDims int) *CellMap[V] {
	return &CellMap[V]{nDims: nDims, width: packWidth(nDims), packed: make(map[uint64]V)}
}

// strKeyStack is the string key of a 16-dimension cell: up to there Get
// and Delete build the key on their stack.
const strKeyStack = 64

// Get returns the value held for cell.
func (m *CellMap[V]) Get(cell []ValueID) (V, bool) {
	if k, ok := packCell(cell, m.width); ok {
		v, hit := m.packed[k]
		return v, hit
	}
	var buf [strKeyStack]byte
	v, hit := m.str[string(AppendCellKey(buf[:0], cell))]
	return v, hit
}

// Put sets the value held for cell.
func (m *CellMap[V]) Put(cell []ValueID, v V) {
	if k, ok := packCell(cell, m.width); ok {
		m.packed[k] = v
		return
	}
	if m.str == nil {
		m.str = make(map[string]V)
	}
	var buf [strKeyStack]byte
	m.str[string(AppendCellKey(buf[:0], cell))] = v
}

// Delete removes cell; a cell not held is left alone.
func (m *CellMap[V]) Delete(cell []ValueID) {
	if k, ok := packCell(cell, m.width); ok {
		delete(m.packed, k)
		return
	}
	var buf [strKeyStack]byte
	delete(m.str, string(AppendCellKey(buf[:0], cell)))
}

// Len returns the number of cells held.
func (m *CellMap[V]) Len() int { return len(m.packed) + len(m.str) }

// Clone returns an independent copy of the table (values are copied as
// Go assigns them).
func (m *CellMap[V]) Clone() *CellMap[V] {
	return &CellMap[V]{nDims: m.nDims, width: m.width, packed: maps.Clone(m.packed), str: maps.Clone(m.str)}
}

// Rewrite passes every value through fn, keeping fn's result or, when fn
// says false, dropping the entry. A Go map never gives buckets back, so
// fresh moves the survivors into right-sized maps instead of rewriting in
// place — for the caller who knows most entries are going.
func (m *CellMap[V]) Rewrite(fresh bool, fn func(V) (V, bool)) {
	m.packed = rewritten(m.packed, fresh, fn)
	m.str = rewritten(m.str, fresh, fn)
}

func rewritten[K comparable, V any](m map[K]V, fresh bool, fn func(V) (V, bool)) map[K]V {
	if m == nil {
		return nil
	}
	out := m
	if fresh {
		out = make(map[K]V, len(m))
	}
	for k, v := range m {
		if nv, keep := fn(v); keep {
			out[k] = nv
		} else if !fresh {
			delete(m, k)
		}
	}
	return out
}

// All iterates over the cells held and their values, in no particular
// order. The cell slice is reused: it is valid until the next iteration.
func (m *CellMap[V]) All() iter.Seq2[[]ValueID, V] {
	return func(yield func([]ValueID, V) bool) {
		cell := make([]ValueID, m.nDims)
		mask := uint64(1)<<m.width - 1
		for k, v := range m.packed {
			for i := m.nDims - 1; i >= 0; i-- {
				cell[i] = ValueID(k & mask)
				k >>= m.width
			}
			if !yield(cell, v) {
				return
			}
		}
		for k, v := range m.str {
			for i := range cell {
				cell[i] = ValueID(uint32(k[4*i]) | uint32(k[4*i+1])<<8 | uint32(k[4*i+2])<<16 | uint32(k[4*i+3])<<24)
			}
			if !yield(cell, v) {
				return
			}
		}
	}
}
