package subcube

import (
	"maps"

	"dimred/internal/mdm"
	"dimred/internal/storage"
)

// cellIndex maps a cube cell to its physical row. When every value of
// a cell fits in 64/nDims bits the cell packs into one uint64
// (mdm.PackCell) and the lookup is allocation-free; cells with larger
// (or negative) values fall back to a string-keyed map. A given cell
// always packs the same way, so each cell lives in exactly one of the
// two maps.
type cellIndex struct {
	packed map[uint64]storage.RowID
	str    map[string]storage.RowID
	width  uint // bits per dimension value; 0 disables packing
	buf    []byte
}

func newCellIndex(nDims int) *cellIndex {
	return &cellIndex{packed: make(map[uint64]storage.RowID), width: mdm.PackWidth(nDims)}
}

func (ix *cellIndex) get(cell []mdm.ValueID) (storage.RowID, bool) {
	if k, ok := mdm.PackCell(cell, ix.width); ok {
		r, hit := ix.packed[k]
		return r, hit
	}
	if ix.str == nil {
		return 0, false
	}
	buf, _ := cellKey(ix.buf, cell)
	ix.buf = buf
	r, hit := ix.str[string(buf)]
	return r, hit
}

func (ix *cellIndex) put(cell []mdm.ValueID, r storage.RowID) {
	if k, ok := mdm.PackCell(cell, ix.width); ok {
		ix.packed[k] = r
		return
	}
	if ix.str == nil {
		ix.str = make(map[string]storage.RowID)
	}
	_, key := cellKey(ix.buf, cell)
	ix.str[key] = r
}

func (ix *cellIndex) del(cell []mdm.ValueID) {
	if k, ok := mdm.PackCell(cell, ix.width); ok {
		delete(ix.packed, k)
		return
	}
	if ix.str == nil {
		return
	}
	buf, _ := cellKey(ix.buf, cell)
	ix.buf = buf
	delete(ix.str, string(buf))
}

// clone returns an independent copy of the index (the scratch buffer
// is not shared: the clone starts with a nil buf and grows its own).
func (ix *cellIndex) clone() *cellIndex {
	return &cellIndex{width: ix.width, packed: maps.Clone(ix.packed), str: maps.Clone(ix.str), buf: nil}
}

// applyRemap rewrites every entry through the row remapping returned
// by Store.Compact, dropping entries whose rows were reclaimed. A Go map
// never gives buckets back, so when the entries are a quarter of the
// compacted slots or fewer — the rule Store.Compact shrinks its columns
// by — they move to right-sized maps instead.
func (ix *cellIndex) applyRemap(remap []storage.RowID) {
	shrink := (len(ix.packed)+len(ix.str))*4 <= len(remap)
	ix.packed = remapped(ix.packed, remap, shrink)
	ix.str = remapped(ix.str, remap, shrink)
}

func remapped[K comparable](m map[K]storage.RowID, remap []storage.RowID, shrink bool) map[K]storage.RowID {
	if m == nil {
		return nil
	}
	out := m
	if shrink {
		out = make(map[K]storage.RowID, len(m))
	}
	for k, r := range m {
		if nr := remap[r]; nr >= 0 {
			out[k] = nr
		} else if !shrink {
			delete(m, k)
		}
	}
	return out
}
