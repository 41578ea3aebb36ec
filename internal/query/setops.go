package query

import (
	"fmt"

	"dimred/internal/mdm"
)

// Union is the MO union operator of the extended algebra the paper
// builds on (Pedersen et al. [13]): the facts of both objects over the
// same schema, with facts mapping to the same cell merged by the default
// aggregate functions (facts are identified by their characterization,
// as in the reduction semantics). The result's insert floors are the
// pointwise meet of the operands'.
func Union(a, b *mdm.MO) (*mdm.MO, error) {
	if a.Schema() != b.Schema() {
		return nil, fmt.Errorf("query: Union: operands have different schemas")
	}
	schema := a.Schema()
	out := mdm.NewMO(schema)
	floors, bf := a.Floors(), b.Floors()
	for i, d := range schema.Dims {
		floors[i] = d.GLB(floors[i], bf[i])
	}
	out.SetFloors(floors)

	held := mdm.NewCellMap[mdm.FactID](schema.NumDims())
	add := func(mo *mdm.MO, f mdm.FactID) error {
		refs := mo.Refs(f)
		if ex, ok := held.Get(refs); ok {
			for j, m := range schema.Measures {
				out.SetMeasure(ex, j, m.Agg.Merge(out.Measure(ex, j), mo.Measure(f, j)))
			}
			out.AddBaseCount(ex, mo.BaseCount(f))
			return nil
		}
		nf, err := out.AddFactAt(refs, mo.Measures(f), mo.BaseCount(f), mo.Name(f))
		if err != nil {
			return err
		}
		held.Put(refs, nf)
		return nil
	}
	for f := 0; f < a.Len(); f++ {
		if err := add(a, mdm.FactID(f)); err != nil {
			return nil, fmt.Errorf("query: Union: %w", err)
		}
	}
	for f := 0; f < b.Len(); f++ {
		if err := add(b, mdm.FactID(f)); err != nil {
			return nil, fmt.Errorf("query: Union: %w", err)
		}
	}
	return out, nil
}

// Difference returns the facts of a whose cell does not appear in b —
// cell-identity difference over the same schema ([13]). Measures are
// not subtracted: a fact either survives untouched or is removed.
func Difference(a, b *mdm.MO) (*mdm.MO, error) {
	if a.Schema() != b.Schema() {
		return nil, fmt.Errorf("query: Difference: operands have different schemas")
	}
	schema := a.Schema()
	drop := mdm.NewCellMap[struct{}](schema.NumDims())
	for f := 0; f < b.Len(); f++ {
		drop.Put(b.Refs(mdm.FactID(f)), struct{}{})
	}
	out := mdm.NewMO(schema)
	out.SetFloors(a.Floors())
	for f := 0; f < a.Len(); f++ {
		fid := mdm.FactID(f)
		refs := a.Refs(fid)
		if _, dropped := drop.Get(refs); dropped {
			continue
		}
		if _, err := out.AddFactAt(refs, a.Measures(fid), a.BaseCount(fid), a.Name(fid)); err != nil {
			return nil, fmt.Errorf("query: Difference: %w", err)
		}
	}
	return out, nil
}
