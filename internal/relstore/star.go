// Package relstore exports a multidimensional object as the relational
// star schema of Appendix A, Table 2 — the layout Section 7's "standard
// data warehouse technology" stores: one denormalized dimension table per
// dimension (a surrogate key plus one column per category) and one fact
// table with surrogate keys and measure columns. It is an export and a
// printer, not a query engine: queries run on the MO algebra and the
// subcube engine.
package relstore

import (
	"fmt"
	"strings"

	"dimred/internal/mdm"
)

// Star is a multidimensional object materialized as a star schema.
type Star struct {
	Dims []DimTable
	Fact FactTable
}

// DimTable is one dimension table. Row v is the dimension's value v: its
// surrogate key is v, and its category columns hold the value's roll-ups.
type DimTable struct {
	Name    string     // "<Dim> Dimension"
	Key     string     // the surrogate-key column, "<dim>_id"
	Columns []string   // one per category, in category order
	Rows    [][]string // Rows[v][c]: v's ancestor in category c, "" where c is not above v
}

// FactTable is the fact table. Row f is the MO's fact f: its key is f.
type FactTable struct {
	Name     string
	Key      string      // "fact_id"
	Columns  []string    // one surrogate-key column per dimension, then one per measure
	Refs     [][]int64   // Refs[f][i]: fact f's key into dimension table i
	Measures [][]float64 // Measures[f][j]: fact f's measure j
}

// Rows returns the fact count.
func (t *FactTable) Rows() int { return len(t.Refs) }

// BuildStar materializes mo. Facts at any granularity are supported: the
// fact's surrogate key references the dimension row of whatever value it
// maps to directly, and that row's category columns expose the available
// roll-ups — which is how the paper's subcubes live in relational
// technology. Every fact key has its dimension row, since an MO holds
// only references its schema has checked, so the error is always nil.
func BuildStar(mo *mdm.MO) (*Star, error) {
	schema := mo.Schema()
	star := &Star{Fact: FactTable{Name: schema.FactType + " Fact", Key: "fact_id"}}
	for _, d := range schema.Dims {
		t := DimTable{Name: d.Name() + " Dimension", Key: strings.ToLower(d.Name()) + "_id"}
		for c := 0; c < d.NumCategories(); c++ {
			t.Columns = append(t.Columns, d.Category(mdm.CategoryID(c)).Name)
		}
		for v := 0; v < d.NumValues(); v++ {
			row := make([]string, d.NumCategories())
			for c := range row {
				if a := d.AncestorAt(mdm.ValueID(v), mdm.CategoryID(c)); a != mdm.NoValue {
					row[c] = d.ValueName(a)
				}
			}
			t.Rows = append(t.Rows, row)
		}
		star.Dims = append(star.Dims, t)
		star.Fact.Columns = append(star.Fact.Columns, t.Key)
	}
	for _, m := range schema.Measures {
		star.Fact.Columns = append(star.Fact.Columns, m.Name)
	}
	for f := 0; f < mo.Len(); f++ {
		fid := mdm.FactID(f)
		refs := make([]int64, len(schema.Dims))
		for i := range refs {
			refs[i] = int64(mo.Ref(fid, i))
		}
		star.Fact.Refs = append(star.Fact.Refs, refs)
		star.Fact.Measures = append(star.Fact.Measures, mo.Measures(fid))
	}
	return star, nil
}

// FormatAll renders every table, Appendix A style: the table name, the
// column names, then one row per key in key order, cells separated by
// " | " and each table followed by a blank line.
func (s *Star) FormatAll() string {
	var b strings.Builder
	for _, t := range s.Dims {
		writeHeader(&b, t.Name, t.Key, t.Columns)
		for v, row := range t.Rows {
			fmt.Fprintf(&b, "%d | %s\n", v, strings.Join(row, " | "))
		}
		b.WriteByte('\n')
	}
	t := &s.Fact
	writeHeader(&b, t.Name, t.Key, t.Columns)
	for f, refs := range t.Refs {
		fmt.Fprint(&b, f)
		for _, k := range refs {
			fmt.Fprintf(&b, " | %d", k)
		}
		for _, m := range t.Measures[f] {
			fmt.Fprintf(&b, " | %v", m)
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	return b.String()
}

func writeHeader(b *strings.Builder, name, key string, cols []string) {
	fmt.Fprintf(b, "%s\n%s | %s\n", name, key, strings.Join(cols, " | "))
}
