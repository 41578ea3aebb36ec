// Package specexec compiles a reduction specification into an
// executable SpecProgram: per action, per DNF disjunct, per constrained
// dimension, a bitset over that dimension's ValueID space marking the
// values whose verdict is true. The interpreted path (package spec)
// re-derives every verdict per row per call — walking AncestorAt chains
// and, below the constrained category, whole DrillDown descents; the
// compiled program performs each of those walks once per distinct
// dimension value and turns the per-row AggLevel/DeletedBy checks into
// a handful of word-indexed probes with zero allocations.
//
// Time stays explicit. NOW-relative time tests cannot be folded into
// compile-time bitsets — their right-hand sides move with the
// evaluation day — so Compile records them symbolically and
// Program.At(t) resolves them into a day-pinned Router. The Router is
// a pure function of (Program, t): it never reads a clock, so the
// explicit-time contract of Definitions 2–4 survives compilation, and
// one Router may be shared read-only by any number of goroutines.
//
// Values added to a dimension after compilation are outside the bitset
// domain; the Router detects them (the per-dimension domain size is
// recorded at compile time) and interprets its own actions' predicates
// for that cell, so a program behind its dimensions is never wrong, only
// slower.
package specexec

import (
	"slices"
	"sync/atomic"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/spec"
)

// bitset is a fixed-capacity bit vector over one dimension's ValueID
// space.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) intersect(o bitset) {
	for w := range b {
		b[w] &= o[w]
	}
}

// dimMask is one probe of a compiled disjunct: the cell's value for
// dimension dim must be set in bits.
type dimMask struct {
	dim  int
	bits bitset
}

// timeTest identifies a NOW-relative (or anchored) time test kept
// symbolic at compile time, to be resolved by Program.At.
type timeTest struct {
	disjunct, test int
}

// progDisjunct is one compiled DNF disjunct: the intersection of its
// plain tests as per-dimension bitsets, plus the time tests awaiting a
// day.
type progDisjunct struct {
	never bool
	plain []dimMask
	time  []int // test indices within the disjunct, resolved by At
}

// progAction is one compiled action.
type progAction struct {
	src       *spec.Action
	isDelete  bool
	target    mdm.Granularity
	disjuncts []progDisjunct
}

// Program is a compiled action set: a function of the actions a
// specification held when Compile read them and of the dimension values
// that existed then, holding no reference to the specification. It is
// immutable after Compile but for the router memo, which only caches
// what At would compute. Actions never change once admitted —
// Spec.Insert and Spec.Delete replace the set — so the engine keeps one
// Program per action set (ProgramFor): compilation happens once per spec
// mutation, not once per synchronization, reduction or unsynchronized
// query, and costs one verdict per (test, dimension value), not one per
// (test, row).
type Program struct {
	env   *spec.Env
	acts  []progAction
	nVals []int // per dimension: domain size at compile time
	bytes int64 // bitset bytes held by the compile-time masks
	// routers memoizes At per day, direct-mapped; RouterAt fills it.
	routers [routerSlots]atomic.Pointer[Router]
}

// Compile builds the program for the specification's current action
// set. Every plain (non-time) test of every disjunct is evaluated once
// per value of its dimension — ancestor lookup or conservative
// descendant descent included — and materialized as a bitset.
func Compile(sp *spec.Spec) *Program {
	env := sp.Env()
	p := &Program{env: env, nVals: make([]int, len(env.Schema.Dims))}
	for i, d := range env.Schema.Dims {
		p.nVals[i] = d.NumValues()
	}
	for _, a := range sp.Actions() {
		pa := progAction{src: a, isDelete: a.IsDelete(), target: a.Target()}
		for i := 0; i < a.NumDisjuncts(); i++ {
			var pd progDisjunct
			for j := 0; j < a.NumTests(i) && !pd.never; j++ {
				dim, isTime := a.TestShape(i, j)
				switch dim {
				case spec.TestConstTrue:
					continue
				case spec.TestConstFalse:
					pd.never = true
					continue
				}
				if isTime {
					pd.time = append(pd.time, j)
					continue
				}
				bits := p.testMask(a, i, j, dim)
				merged := false
				for _, m := range pd.plain {
					if m.dim == dim {
						m.bits.intersect(bits)
						merged = true
						break
					}
				}
				if !merged {
					pd.plain = append(pd.plain, dimMask{dim: dim, bits: bits})
					p.bytes += int64(len(bits)) * 8
				}
			}
			pa.disjuncts = append(pa.disjuncts, pd)
		}
		p.acts = append(p.acts, pa)
	}
	return p
}

// testMask materializes plain test (i, j) of action a as a bitset over
// dimension dim's value space.
func (p *Program) testMask(a *spec.Action, i, j, dim int) bitset {
	n := p.nVals[dim]
	bits := newBitset(n)
	for v := 0; v < n; v++ {
		if a.PlainTestVerdict(i, j, mdm.ValueID(v)) {
			bits.set(v)
		}
	}
	return bits
}

// BitsetBytes returns the bytes held by the program's compile-time
// bitsets (the static masks; day-pinned time masks are per-Router and
// transient).
func (p *Program) BitsetBytes() int64 { return p.bytes }

// routerDisjunct is a fully day-pinned disjunct: a cell satisfies it
// iff every mask contains the cell's value for the mask's dimension.
type routerDisjunct struct {
	never bool
	masks []dimMask
}

type routerAction struct {
	src       *spec.Action
	isDelete  bool
	target    mdm.Granularity
	disjuncts []routerDisjunct
}

// Router is a Program pinned to one evaluation day: every NOW-relative
// window is resolved to a concrete bitset. Routers are immutable and
// safe for concurrent use; the probe methods allocate nothing.
type Router struct {
	p    *Program
	t    caltime.Day
	acts []routerAction
}

// At resolves the program at evaluation day t: each time test becomes
// a bitset over the time dimension's value space (one verdict per
// value, NOW bound to t), intersected with the disjunct's static mask
// for that dimension. Disjuncts without time tests share the
// compile-time masks without copying.
func (p *Program) At(t caltime.Day) *Router {
	r := &Router{p: p, t: t, acts: make([]routerAction, len(p.acts))}
	for k := range p.acts {
		pa := &p.acts[k]
		ra := routerAction{src: pa.src, isDelete: pa.isDelete, target: pa.target,
			disjuncts: make([]routerDisjunct, len(pa.disjuncts))}
		for di := range pa.disjuncts {
			pd := &pa.disjuncts[di]
			if pd.never {
				ra.disjuncts[di] = routerDisjunct{never: true}
				continue
			}
			if len(pd.time) == 0 {
				ra.disjuncts[di] = routerDisjunct{masks: pd.plain}
				continue
			}
			ra.disjuncts[di] = routerDisjunct{masks: p.pinDisjunct(pa.src, di, pd, t)}
		}
		r.acts[k] = ra
	}
	return r
}

// pinDisjunct combines the disjunct's static masks with its time tests
// resolved at t.
func (p *Program) pinDisjunct(a *spec.Action, di int, pd *progDisjunct, t caltime.Day) []dimMask {
	td := p.env.TimeDim
	n := p.nVals[td]
	timeBits := newBitset(n)
	for w := range timeBits {
		timeBits[w] = ^uint64(0)
	}
	for _, j := range pd.time {
		jb := newBitset(n)
		for v := 0; v < n; v++ {
			if a.TimeTestVerdict(di, j, mdm.ValueID(v), t) {
				jb.set(v)
			}
		}
		timeBits.intersect(jb)
	}
	masks := make([]dimMask, 0, len(pd.plain)+1)
	placed := false
	for _, m := range pd.plain {
		if m.dim == td {
			combined := newBitset(n)
			copy(combined, m.bits)
			combined.intersect(timeBits)
			masks = append(masks, dimMask{dim: td, bits: combined})
			placed = true
			continue
		}
		masks = append(masks, m)
	}
	if !placed {
		masks = append(masks, dimMask{dim: td, bits: timeBits})
	}
	return masks
}

// Day returns the evaluation day the router is pinned to.
func (r *Router) Day() caltime.Day { return r.t }

// DomainComplete reports whether the program's bitset domain still
// covers every value of every dimension: no value was added since
// compilation, so no cell's predicates are interpreted and the pinned
// masks are the router's whole verdict table.
func (r *Router) DomainComplete() bool {
	for i, d := range r.p.env.Schema.Dims {
		if d.NumValues() != r.p.nVals[i] {
			return false
		}
	}
	return true
}

// SameVerdicts reports whether r and o — two day-pinnings of one
// program — hold word-for-word equal masks, and hence give every
// in-domain cell the same DeletedBy and AggLevelInto answers. Routers
// of different programs are never the same. The
// comparison is conservative: masks that differ only on values no cell
// can carry still report false.
func (r *Router) SameVerdicts(o *Router) bool {
	if r.p != o.p {
		return false
	}
	for k := range r.acts {
		for di := range r.acts[k].disjuncts {
			// Same program: never flags, mask counts and mask dimensions
			// agree by construction; only the day-pinned bits can differ.
			rm, om := r.acts[k].disjuncts[di].masks, o.acts[k].disjuncts[di].masks
			for i := range rm {
				if !slices.Equal(rm[i].bits, om[i].bits) {
					return false
				}
			}
		}
	}
	return true
}

// inDomain reports whether every cell value lies inside the bitset
// domain recorded at compile time. A cell with a value added afterwards
// has every predicate interpreted.
func (r *Router) inDomain(cell []mdm.ValueID) bool {
	for i, n := range r.p.nVals {
		if v := cell[i]; v < 0 || int(v) >= n {
			return false
		}
	}
	return true
}

// probe reports whether an in-domain cell lies in the action's pinned
// masks. It inlines into every probe loop below.
func (ra *routerAction) probe(cell []mdm.ValueID) bool {
	for di := range ra.disjuncts {
		rd := &ra.disjuncts[di]
		if rd.never {
			continue
		}
		ok := true
		for _, m := range rd.masks {
			if !m.bits.has(int(cell[m.dim])) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// Each probe below tests the domain once, then runs one of two loops over
// the actions: the mask loop, or — for a cell carrying a value added since
// the compile — the same loop interpreting each action's own predicate
// (ra.src, which the masks were compiled from: the router stays a function
// of its action set and day whatever becomes of the specification). One
// shared verdict step taking the domain test as an argument costs the mask
// loop a call per action (EXPERIMENTS.md "One program per action set").

// DeletedBy returns the first deletion action the cell satisfies at
// the router's day, or nil — the compiled Spec.DeletedBy. It allocates
// nothing.
func (r *Router) DeletedBy(cell []mdm.ValueID) *spec.Action {
	if !r.inDomain(cell) {
		for k := range r.acts {
			if ra := &r.acts[k]; ra.isDelete && ra.src.SatisfiedBy(cell, r.t) {
				return ra.src
			}
		}
		return nil
	}
	for k := range r.acts {
		if ra := &r.acts[k]; ra.isDelete && ra.probe(cell) {
			return ra.src
		}
	}
	return nil
}

// AggLevelInto computes the cell's aggregation level at the router's
// day into caller-provided scratch — the compiled Spec.AggLevel with
// the per-call level/resp allocations hoisted out. level and resp must
// have one entry per dimension; resp may be nil when responsibility is
// not needed. It allocates nothing.
func (r *Router) AggLevelInto(cell []mdm.ValueID, level mdm.Granularity, resp []*spec.Action) {
	dims := r.p.env.Schema.Dims
	for i, d := range dims {
		level[i] = d.CategoryOf(cell[i])
	}
	if resp != nil {
		for i := range resp {
			resp[i] = nil
		}
	}
	if !r.inDomain(cell) {
		for k := range r.acts {
			if ra := &r.acts[k]; !ra.isDelete && ra.src.SatisfiedBy(cell, r.t) {
				ra.raise(dims, level, resp)
			}
		}
		return
	}
	for k := range r.acts {
		if ra := &r.acts[k]; !ra.isDelete && ra.probe(cell) {
			ra.raise(dims, level, resp)
		}
	}
}

// raise lifts level, per dimension, to the action's target where that is
// higher, and names the action responsible.
func (ra *routerAction) raise(dims []*mdm.Dimension, level mdm.Granularity, resp []*spec.Action) {
	for i, d := range dims {
		if d.CatLE(level[i], ra.target[i]) && level[i] != ra.target[i] {
			level[i] = ra.target[i]
			if resp != nil {
				resp[i] = ra.src
			}
		}
	}
}
