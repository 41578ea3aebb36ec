package spec

import (
	"fmt"
	"strconv"
	"strings"

	"dimred/internal/mdm"
)

// This file is the category-type-lattice helper behind materialized
// rollup views (Gray et al.'s data-cube lattice over grouping levels).
// Granularities form a lattice under <=_g (Eq. 6); a view materialized
// at granularity G can answer a query at granularity G_q exactly when
// G <=_g G_q, because Definition 6's distributive aggregate functions
// make the two-step fold α[G_q](α[G](O)) equal to the direct α[G_q](O).

// RollupReachableSchema reports whether facts materialized at
// granularity `from` can be further aggregated to granularity `to`: the
// lattice order <=_g, pointwise over each dimension's category
// hierarchy. Parallel hierarchies (e.g. Time.week versus Time.month) are
// incomparable, so neither can serve the other.
func RollupReachableSchema(schema *mdm.Schema, from, to mdm.Granularity) bool {
	n := schema.NumDims()
	if len(from) != n || len(to) != n {
		return false
	}
	return schema.GranLE(from, to)
}

// EstimateCells bounds the number of cells a view materialized at g can
// hold: the product of each category's value-universe size, saturating
// on overflow. The greedy selector uses it to estimate bytes saved
// before paying for a build.
func EstimateCells(env *Env, g mdm.Granularity) int64 {
	var cells int64 = 1
	for i, d := range env.Schema.Dims {
		n := int64(len(d.ValuesIn(g[i])))
		if n == 0 {
			n = 1
		}
		if cells > (1<<62)/n {
			return 1 << 62 // saturate: the bound only ranks candidates
		}
		cells *= n
	}
	return cells
}

// EncodeGran renders a granularity as a compact, order-stable shape key
// ("3.1" for category ids 3 and 1 in dimension order), the currency of
// the obs query-shape trace. DecodeGran inverts it.
func EncodeGran(g mdm.Granularity) string {
	var b strings.Builder
	for i, c := range g {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.Itoa(int(c)))
	}
	return b.String()
}

// DecodeGran parses an EncodeGran key back into a granularity,
// validating every category id against the schema so a corrupt key can
// never index out of a dimension's category table.
func DecodeGran(env *Env, key string) (mdm.Granularity, error) {
	parts := strings.Split(key, ".")
	if len(parts) != env.Schema.NumDims() {
		return nil, fmt.Errorf("spec: shape key %q has %d categories, schema needs %d",
			key, len(parts), env.Schema.NumDims())
	}
	g := make(mdm.Granularity, len(parts))
	for i, p := range parts {
		c, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("spec: shape key %q: %w", key, err)
		}
		if c < 0 || c >= env.Schema.Dims[i].NumCategories() {
			return nil, fmt.Errorf("spec: shape key %q: category %d out of range for dimension %s",
				key, c, env.Schema.Dims[i].Name())
		}
		g[i] = mdm.CategoryID(c)
	}
	return g, nil
}
