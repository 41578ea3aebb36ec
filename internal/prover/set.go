// Package prover is the decision procedure the reduction engine uses
// where the paper delegates to a theorem prover (PVS, Sections 5.2 and
// 5.3). The paper's predicate grammar (Table 1), once normalized to DNF,
// only produces conjunctions of per-dimension range/membership
// constraints whose time bounds are affine in NOW, over finite non-time
// domains. For that class the three checks the paper needs —
// satisfiability, temporal overlap (does there exist a time t at which
// two predicates select a common cell), and coverage (is every cell
// selected by one predicate also selected by some predicate in a set) —
// are decidable exactly:
//
//   - every non-time constraint is materialized as a bitset over the
//     bottom-category values of its dimension (cells are characterized by
//     their leaf values, so leaf-level reasoning is exact);
//   - every time constraint is materialized, for a given binding of NOW,
//     as a bitset of day indices over a bounded horizon (the dimension's
//     populated day range extended by the largest NOW offset appearing in
//     any predicate — beyond that horizon NOW-relative windows saturate,
//     so the sweep is exhaustive for the model);
//   - existential time quantification sweeps NOW over the horizon;
//   - coverage of a product region by a union of product regions is
//     decided by orthant decomposition.
package prover

import "math/bits"

// Set is a fixed-universe bitset. The zero Set is unusable; construct
// with NewSet, Full or Empty.
type Set struct {
	words []uint64
	n     int
}

// NewSet returns an empty set over a universe of n elements.
func NewSet(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Full returns the set containing every element of the universe.
func Full(n int) *Set {
	s := NewSet(n)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
	return s
}

func (s *Set) trim() {
	if s.n%64 != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(s.n%64)) - 1
	}
}

// Add inserts element i.
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/64] |= 1 << uint(i%64)
}

// AddRange inserts every element in [lo, hi] (clipped to the universe).
func (s *Set) AddRange(lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	if hi >= s.n {
		hi = s.n - 1
	}
	if lo > hi {
		return
	}
	loW, hiW := lo/64, hi/64
	loMask := ^uint64(0) << uint(lo%64)
	hiMask := ^uint64(0) >> uint(63-hi%64)
	if loW == hiW {
		s.words[loW] |= loMask & hiMask
		return
	}
	s.words[loW] |= loMask
	for w := loW + 1; w < hiW; w++ {
		s.words[w] = ^uint64(0)
	}
	s.words[hiW] |= hiMask
}

// Has reports whether element i is present.
func (s *Set) Has(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/64]&(1<<uint(i%64)) != 0
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of elements.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a copy of the set.
func (s *Set) Clone() *Set {
	return &Set{words: append([]uint64(nil), s.words...), n: s.n}
}

// IntersectWith removes elements not in o (in place).
func (s *Set) IntersectWith(o *Set) *Set {
	for i := range s.words {
		s.words[i] &= o.words[i]
	}
	return s
}

// UnionWith adds elements of o (in place).
func (s *Set) UnionWith(o *Set) *Set {
	for i := range s.words {
		s.words[i] |= o.words[i]
	}
	return s
}

// MinusWith removes elements of o (in place).
func (s *Set) MinusWith(o *Set) *Set {
	for i := range s.words {
		s.words[i] &^= o.words[i]
	}
	return s
}

// Complement flips the set within its universe (in place).
func (s *Set) Complement() *Set {
	for i := range s.words {
		s.words[i] = ^s.words[i]
	}
	s.trim()
	return s
}

// Intersects reports whether s and o share an element.
func (s *Set) Intersects(o *Set) bool {
	for i := range s.words {
		if s.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every element of s is in o.
func (s *Set) SubsetOf(o *Set) bool {
	for i := range s.words {
		if s.words[i]&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Elems appends the elements in ascending order to dst and returns it.
func (s *Set) Elems(dst []int) []int {
	for i := 0; i < s.n; i++ {
		if s.Has(i) {
			dst = append(dst, i)
		}
	}
	return dst
}
