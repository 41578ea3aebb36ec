package obs

import "sync"

// ShapeStats is a lock-free frequency table of observed query shapes,
// keyed by an opaque shape string (the warehouse encodes the requested
// target granularity). Each shape has one Counter for the table's life:
// a caller that records one shape often (the warehouse's plan of a query
// text) holds its Counter and records with one atomic add; Record costs
// one sync.Map load besides. The materialized-view selector reads the
// accumulated trace to learn which rollup levels the workload actually
// asks for. The table is bounded by the category-type lattice: there
// are only as many distinct shapes as granularities, so it never needs
// eviction.
type ShapeStats struct {
	m sync.Map // shape key → *Counter
}

// Counter returns the shape's counter, made on first use. Counts sees
// every increment of it.
func (s *ShapeStats) Counter(key string) *Counter {
	if c, ok := s.m.Load(key); ok {
		return c.(*Counter)
	}
	c, _ := s.m.LoadOrStore(key, &Counter{})
	return c.(*Counter)
}

// Record counts one observation of the shape.
func (s *ShapeStats) Record(key string) { s.Counter(key).Inc() }

// Add seeds n observations of the shape in one step. Snapshot restore
// uses it to rebuild a persisted trace without n calls to Record.
func (s *ShapeStats) Add(key string, n int64) {
	if n != 0 {
		s.Counter(key).Add(n)
	}
}

// Counts copies the current per-shape totals of the shapes observed at
// least once: a counter made by Counter and never incremented (a plan
// whose reads were all ineligible) is not a shape the workload asked
// for. Concurrent recorders may land between the reads; the copy is
// consistent enough for view selection, never for accounting.
func (s *ShapeStats) Counts() map[string]int64 {
	out := map[string]int64{}
	s.m.Range(func(k, v any) bool {
		if n := v.(*Counter).Load(); n != 0 {
			out[k.(string)] = n
		}
		return true
	})
	return out
}
