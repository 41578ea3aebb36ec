// Package relstore is a small in-memory relational engine with typed
// columnar tables, primary-key hash indexes, scans and hash group-by —
// enough "standard data warehouse technology" (Section 7) to materialize
// a multidimensional object as the star schema of Appendix A, Table 2:
// one denormalized dimension table per dimension (one column per
// category) and one fact table with surrogate keys and measure columns.
package relstore

import (
	"fmt"
	"sort"
	"strings"
)

// Kind is a column type.
type Kind int

const (
	KindInt64 Kind = iota
	KindFloat64
	KindString
)

// String returns the SQL-ish type name.
func (k Kind) String() string {
	switch k {
	case KindInt64:
		return "BIGINT"
	case KindFloat64:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Column describes one table column.
type Column struct {
	Name string
	Kind Kind
}

// Table is a typed columnar table with an optional int64 primary key.
type Table struct {
	name    string
	cols    []Column
	colIdx  map[string]int
	ints    [][]int64
	floats  [][]float64
	strs    [][]string
	rows    int
	pkCol   int // -1 for none
	pkIndex map[int64]int
}

// NewTable creates a table. pkCol names the primary-key column (must be
// KindInt64) or is empty for none.
func NewTable(name string, cols []Column, pkCol string) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("relstore: table %s: no columns", name)
	}
	t := &Table{
		name:   name,
		cols:   cols,
		colIdx: make(map[string]int, len(cols)),
		ints:   make([][]int64, len(cols)),
		floats: make([][]float64, len(cols)),
		strs:   make([][]string, len(cols)),
		pkCol:  -1,
	}
	for i, c := range cols {
		if _, dup := t.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("relstore: table %s: duplicate column %q", name, c.Name)
		}
		t.colIdx[c.Name] = i
	}
	if pkCol != "" {
		i, ok := t.colIdx[pkCol]
		if !ok {
			return nil, fmt.Errorf("relstore: table %s: no column %q for primary key", name, pkCol)
		}
		if cols[i].Kind != KindInt64 {
			return nil, fmt.Errorf("relstore: table %s: primary key %q must be BIGINT", name, pkCol)
		}
		t.pkCol = i
		t.pkIndex = make(map[int64]int)
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns the column definitions.
func (t *Table) Columns() []Column { return t.cols }

// ColumnIndex resolves a column name; -1 when absent.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// Rows returns the row count.
func (t *Table) Rows() int { return t.rows }

// Bytes models the table's relational storage footprint, surfaced by
// the observability layer: 8 bytes per BIGINT or DOUBLE cell, string
// length per VARCHAR cell, plus 8 bytes of per-row metadata — the same
// cost model internal/storage applies to fact rows.
func (t *Table) Bytes() int64 {
	var total int64 = int64(t.rows) * 8
	for i, c := range t.cols {
		switch c.Kind {
		case KindInt64, KindFloat64:
			total += int64(t.rows) * 8
		case KindString:
			for _, s := range t.strs[i] {
				total += int64(len(s))
			}
		}
	}
	return total
}

// Insert adds a row; values must match the column kinds (int64, float64
// or string). Primary-key duplicates are rejected.
func (t *Table) Insert(vals ...interface{}) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("relstore: table %s: %d values for %d columns", t.name, len(vals), len(t.cols))
	}
	if t.pkCol >= 0 {
		pk, ok := vals[t.pkCol].(int64)
		if !ok {
			return fmt.Errorf("relstore: table %s: primary key must be int64", t.name)
		}
		if _, dup := t.pkIndex[pk]; dup {
			return fmt.Errorf("relstore: table %s: duplicate primary key %d", t.name, pk)
		}
	}
	for i, c := range t.cols {
		switch c.Kind {
		case KindInt64:
			v, ok := vals[i].(int64)
			if !ok {
				return fmt.Errorf("relstore: table %s: column %s expects int64, got %T", t.name, c.Name, vals[i])
			}
			t.ints[i] = append(t.ints[i], v)
		case KindFloat64:
			v, ok := vals[i].(float64)
			if !ok {
				return fmt.Errorf("relstore: table %s: column %s expects float64, got %T", t.name, c.Name, vals[i])
			}
			t.floats[i] = append(t.floats[i], v)
		case KindString:
			v, ok := vals[i].(string)
			if !ok {
				return fmt.Errorf("relstore: table %s: column %s expects string, got %T", t.name, c.Name, vals[i])
			}
			t.strs[i] = append(t.strs[i], v)
		}
	}
	if t.pkCol >= 0 {
		t.pkIndex[vals[t.pkCol].(int64)] = t.rows
	}
	t.rows++
	return nil
}

// Lookup finds the row with the given primary key.
func (t *Table) Lookup(pk int64) (int, bool) {
	if t.pkIndex == nil {
		return 0, false
	}
	r, ok := t.pkIndex[pk]
	return r, ok
}

// Int reads an int64 cell.
func (t *Table) Int(row, col int) int64 { return t.ints[col][row] }

// Float reads a float64 cell.
func (t *Table) Float(row, col int) float64 { return t.floats[col][row] }

// Str reads a string cell.
func (t *Table) Str(row, col int) string { return t.strs[col][row] }

// Cell reads any cell as an interface value.
func (t *Table) Cell(row, col int) interface{} {
	switch t.cols[col].Kind {
	case KindInt64:
		return t.ints[col][row]
	case KindFloat64:
		return t.floats[col][row]
	default:
		return t.strs[col][row]
	}
}

// Scan calls fn for each row until it returns false.
func (t *Table) Scan(fn func(row int) bool) {
	for r := 0; r < t.rows; r++ {
		if !fn(r) {
			return
		}
	}
}

// Format renders the table content, sorted by primary key (or insertion
// order), in the layout of the paper's Table 2.
func (t *Table) Format() string {
	var b strings.Builder
	b.WriteString(t.name)
	b.WriteByte('\n')
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.Name
	}
	b.WriteString(strings.Join(names, " | "))
	b.WriteByte('\n')
	order := make([]int, t.rows)
	for i := range order {
		order[i] = i
	}
	if t.pkCol >= 0 {
		sort.Slice(order, func(i, j int) bool {
			return t.ints[t.pkCol][order[i]] < t.ints[t.pkCol][order[j]]
		})
	}
	for _, r := range order {
		cells := make([]string, len(t.cols))
		for i := range t.cols {
			cells[i] = fmt.Sprint(t.Cell(r, i))
		}
		b.WriteString(strings.Join(cells, " | "))
		b.WriteByte('\n')
	}
	return b.String()
}

// DB is a named collection of tables.
type DB struct {
	tables map[string]*Table
	order  []string
}

// NewDB creates an empty database.
func NewDB() *DB { return &DB{tables: make(map[string]*Table)} }

// Add registers a table; duplicate names are rejected.
func (db *DB) Add(t *Table) error {
	if _, dup := db.tables[t.name]; dup {
		return fmt.Errorf("relstore: duplicate table %q", t.name)
	}
	db.tables[t.name] = t
	db.order = append(db.order, t.name)
	return nil
}

// Table looks up a table by name.
func (db *DB) Table(name string) (*Table, bool) {
	t, ok := db.tables[name]
	return t, ok
}

// Tables returns the tables in registration order.
func (db *DB) Tables() []*Table {
	out := make([]*Table, 0, len(db.order))
	for _, n := range db.order {
		out = append(out, db.tables[n])
	}
	return out
}
