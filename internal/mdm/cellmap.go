package mdm

import (
	"iter"
	"maps"
	"math/bits"
	"slices"
)

// CellMap is the one cell-keyed table: the cube cell index, the group
// table of aggregate formation, the cross-cube combine and the MO set
// operators all find "the slot this cell already has" through it. A cell
// whose values fit in 63/nDims bits each packs into one uint64 (packCell)
// and lives in an open-addressing table; the rest — wider or negative
// values, more than 63 dimensions — go by their AppendCellKey string in
// a Go map. A given cell always keys the same way, so it lives in exactly
// one of the two. Every cell must have the nDims values the table was
// made for.
//
// The table is a power-of-two array of slot keys beside one of values,
// probed linearly from a Fibonacci hash of the key. A slot key is the
// packed key with bit 63 set, so an empty slot (0) never equals a key.
// Delete shifts the rest of its probe chain back instead of leaving a
// marker, so every chain runs unbroken from a key's home slot to the key,
// and an empty slot ends every chain. The table doubles before it is more
// than three quarters full.
//
// Get writes nothing, so a table inside a published snapshot may be
// probed from any number of goroutines; everything else needs the caller's
// exclusion, like a Go map.
type CellMap[V any] struct {
	nDims int
	width uint     // bits per value of a packed key; 0 when nothing packs
	keys  []uint64 // slot keys: 0 when empty, else occupied | packed key
	vals  []V
	n     int          // packed cells held
	str   map[string]V // nil until a cell that does not pack arrives
}

// occupied marks a slot key; packed keys use at most the 63 bits below.
const occupied = 1 << 63

// minSlots is the slot count a table starts at.
const minSlots = 8

// NewCellMap returns an empty table for cells of nDims values.
func NewCellMap[V any](nDims int) *CellMap[V] {
	return &CellMap[V]{nDims: nDims, width: packWidth(nDims)}
}

// strKeyStack is the string key of a 16-dimension cell: up to there Get
// and Delete build the key on their stack.
const strKeyStack = 64

// home returns the slot a key's probe chain starts at in a table of
// slots slots: the top bits of the key's Fibonacci hash.
func home(key uint64, slots int) int {
	return int(key * 0x9e3779b97f4a7c15 >> bits.LeadingZeros64(uint64(slots-1)))
}

// find returns the slot holding key, or the empty slot that ends its
// probe chain.
func (m *CellMap[V]) find(key uint64) (slot int, held bool) {
	mask := len(m.keys) - 1
	for i := home(key, len(m.keys)); ; i = (i + 1) & mask {
		switch m.keys[i] {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// Get returns the value held for cell.
func (m *CellMap[V]) Get(cell []ValueID) (V, bool) {
	if k, ok := packCell(cell, m.width); ok {
		if len(m.keys) > 0 {
			if i, held := m.find(k | occupied); held {
				return m.vals[i], true
			}
		}
		var zero V
		return zero, false
	}
	var buf [strKeyStack]byte
	v, hit := m.str[string(AppendCellKey(buf[:0], cell))]
	return v, hit
}

// Put sets the value held for cell.
func (m *CellMap[V]) Put(cell []ValueID, v V) {
	if k, ok := packCell(cell, m.width); ok {
		m.put(k|occupied, v)
		return
	}
	if m.str == nil {
		m.str = make(map[string]V)
	}
	var buf [strKeyStack]byte
	m.str[string(AppendCellKey(buf[:0], cell))] = v
}

func (m *CellMap[V]) put(key uint64, v V) {
	if len(m.keys) > 0 {
		i, held := m.find(key)
		if held || (m.n+1)*4 <= len(m.keys)*3 {
			m.keys[i], m.vals[i] = key, v
			if !held {
				m.n++
			}
			return
		}
	}
	m.resize(max(minSlots, 2*len(m.keys)))
	i, _ := m.find(key)
	m.keys[i], m.vals[i] = key, v
	m.n++
}

// resize moves the packed cells into a table of slots slots.
func (m *CellMap[V]) resize(slots int) {
	keys, vals := m.keys, m.vals
	m.keys, m.vals = make([]uint64, slots), make([]V, slots)
	for j, k := range keys {
		if k != 0 {
			i, _ := m.find(k)
			m.keys[i], m.vals[i] = k, vals[j]
		}
	}
}

// Delete removes cell; a cell not held is left alone.
func (m *CellMap[V]) Delete(cell []ValueID) {
	if k, ok := packCell(cell, m.width); ok {
		if len(m.keys) > 0 {
			if i, held := m.find(k | occupied); held {
				m.removeAt(i)
			}
		}
		return
	}
	var buf [strKeyStack]byte
	delete(m.str, string(AppendCellKey(buf[:0], cell)))
}

// removeAt empties slot i and closes the gap: each later key of the
// chain whose home is not between the gap and itself moves back into the
// gap, which moves on to where that key was, until an empty slot ends
// the chain.
func (m *CellMap[V]) removeAt(i int) {
	mask := len(m.keys) - 1
	for j := (i + 1) & mask; m.keys[j] != 0; j = (j + 1) & mask {
		if (j-home(m.keys[j], len(m.keys)))&mask >= (j-i)&mask {
			m.keys[i], m.vals[i] = m.keys[j], m.vals[j]
			i = j
		}
	}
	var zero V
	m.keys[i], m.vals[i] = 0, zero
	m.n--
}

// Len returns the number of cells held.
func (m *CellMap[V]) Len() int { return m.n + len(m.str) }

// Clone returns an independent copy of the table (values are copied as
// Go assigns them).
func (m *CellMap[V]) Clone() *CellMap[V] {
	return &CellMap[V]{nDims: m.nDims, width: m.width, keys: slices.Clone(m.keys),
		vals: slices.Clone(m.vals), n: m.n, str: maps.Clone(m.str)}
}

// Rewrite passes every value through fn, keeping fn's result or, when fn
// says false, dropping the entry. The survivors move into a table sized
// to them, so a rewrite that drops most entries gives their slots back.
func (m *CellMap[V]) Rewrite(fn func(V) (V, bool)) {
	keys, vals := m.keys, m.vals
	n := 0
	for i, k := range keys {
		if k == 0 {
			continue
		}
		if nv, keep := fn(vals[i]); keep {
			vals[i] = nv
			n++
		} else {
			keys[i] = 0
		}
	}
	m.n = n
	if n == 0 {
		m.keys, m.vals = nil, nil
	} else {
		slots := minSlots
		for n*4 > slots*3 {
			slots *= 2
		}
		m.resize(slots)
	}
	if m.str != nil {
		str := make(map[string]V)
		for k, v := range m.str {
			if nv, keep := fn(v); keep {
				str[k] = nv
			}
		}
		m.str = str
	}
}

// All iterates over the cells held and their values, in no particular
// order. The cell slice is reused: it is valid until the next iteration.
func (m *CellMap[V]) All() iter.Seq2[[]ValueID, V] {
	return func(yield func([]ValueID, V) bool) {
		cell := make([]ValueID, m.nDims)
		mask := uint64(1)<<m.width - 1
		for i, k := range m.keys {
			if k == 0 {
				continue
			}
			for d := m.nDims - 1; d >= 0; d-- {
				cell[d] = ValueID(k & mask)
				k >>= m.width
			}
			if !yield(cell, m.vals[i]) {
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
