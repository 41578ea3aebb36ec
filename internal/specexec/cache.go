package specexec

import (
	"sync/atomic"

	"dimred/internal/caltime"
	"dimred/internal/obs"
	"dimred/internal/spec"
)

// routerSlots sizes the per-program day-keyed router cache. Queries
// between two clock advances all ask for the same evaluation day, so a
// handful of direct-mapped slots (day mod routerSlots) covers the
// steady state plus tests that hop between a few nearby days.
const routerSlots = 4

// cacheEntry is one published cache state: the program compiled for one
// (specification pointer, generation) pair plus its day-pinned routers.
// Entries are immutable except for the router slots, which only ever go
// from nil (or a stale day) to a router derived from the same program —
// any value a reader observes is correct for the day it carries.
type cacheEntry struct {
	sp      *spec.Spec
	gen     uint64
	prog    *Program
	routers [routerSlots]atomic.Pointer[Router]
}

// Cache memoizes the compiled Program of the most recent specification
// state it has seen, keyed on (specification pointer, generation): the
// generation is bumped by every Spec mutator, so an unchanged key
// proves the action set is unchanged and the program may be reused.
// Day-pinned Routers are cached per day alongside the program.
//
// Lookups are a single atomic pointer load, so they are cheap under the
// warehouse's read lock. Fills are compute-then-swap: the lock-free
// publish never holds a lock during compilation, and two goroutines
// racing to fill simply compile twice — both programs are correct (the
// generation cannot change mid-race, mutators being externally
// serialized against compilation), one wins the publish and the other
// stays private to its caller. Correctness never depends on which.
//
// The cache retains exactly one program; pointing it at a different
// specification (or a new generation) replaces the entry. The optional
// metric set records hits, misses and the retained bitset bytes.
type Cache struct {
	cur atomic.Pointer[cacheEntry]
	met *obs.Metrics // nil disables instrumentation
}

// NewCache creates an empty cache recording into met (which may be nil).
func NewCache(met *obs.Metrics) *Cache { return &Cache{met: met} }

// SetMetrics redirects the cache's instrumentation to m (nil disables
// it). It is not synchronized against concurrent lookups: the
// epoch-snapshot warehouse calls it only while the cube set owning the
// cache is off the published read path.
func (c *Cache) SetMetrics(m *obs.Metrics) { c.met = m }

// Clone returns a cache for to, a Spec.Clone of from, that starts with
// what c holds for from: the compiled program and its day-pinned routers,
// re-bound to to. A program depends only on the action set, which a
// specification clone shares, so the copy is exact and the first lookup
// through it is a hit — a cube set cloned between two commits does not
// compile or pin again. When c holds nothing current for from the clone
// starts empty. Clone only reads c and may run beside lookups.
func (c *Cache) Clone(from, to *spec.Spec) *Cache {
	c2 := NewCache(c.met)
	old := c.cur.Load()
	if old == nil || old.sp != from || old.gen != to.Generation() {
		return c2
	}
	c2.cur.Store(old.rebound(to))
	return c2
}

// Adopt brings c, the cache of to, up to what src holds for from, the
// specification to is a Spec.Clone of: the routers src pinned since the
// two caches were last equal are re-bound to c's program, so a day one
// side of a left-right pair has pinned is not pinned again by the other.
// Without a current entry of its own c takes src's whole, as Clone would;
// when src holds nothing current for from, c is left as it is. Adopt only
// reads src and may run beside lookups through it; c itself must be off
// every read path.
func (c *Cache) Adopt(src *Cache, from, to *spec.Spec) {
	theirs := src.cur.Load()
	if theirs == nil || theirs.sp != from || theirs.gen != to.Generation() {
		return
	}
	mine := c.cur.Load()
	if mine == nil || mine.sp != to || mine.gen != theirs.gen {
		c.cur.Store(theirs.rebound(to))
		return
	}
	for i := 0; i < routerSlots; i++ {
		r := theirs.routers[i].Load()
		if r == nil {
			continue
		}
		if have := mine.routers[i].Load(); have == nil || have.Day() != r.Day() {
			mine.routers[i].Store(r.clone(mine.prog))
		}
	}
}

// rebound returns the entry as the cache of sp, a Spec.Clone of e.sp at
// e's generation, would hold it: program and routers cloned onto sp.
func (e *cacheEntry) rebound(sp *spec.Spec) *cacheEntry {
	e2 := &cacheEntry{sp: sp, gen: e.gen, prog: e.prog.clone(sp)}
	for i := 0; i < routerSlots; i++ {
		if r := e.routers[i].Load(); r != nil {
			e2.routers[i].Store(r.clone(e2.prog))
		}
	}
	return e2
}

// entryFor returns the cache entry for the specification's current
// generation, compiling and publishing a fresh program on miss.
func (c *Cache) entryFor(sp *spec.Spec) *cacheEntry {
	gen := sp.Generation()
	old := c.cur.Load()
	if old != nil && old.sp == sp && old.gen == gen {
		if c.met != nil {
			c.met.ProgramCacheHits.Inc()
		}
		return old
	}
	e := &cacheEntry{sp: sp, gen: gen, prog: Compile(sp)}
	if c.met != nil {
		c.met.ProgramCacheMisses.Inc()
		c.met.ProgramCompiles.Inc()
	}
	if c.cur.CompareAndSwap(old, e) {
		// BitsetBytes gauges what the cache retains, so only the
		// published program counts; a lost race leaves the winner's
		// figure in place.
		if c.met != nil {
			c.met.BitsetBytes.Set(e.prog.BitsetBytes())
		}
	}
	return e
}

// ProgramFor returns the compiled program for the specification's
// current action set, reusing the cached one when the generation is
// unchanged.
func (c *Cache) ProgramFor(sp *spec.Spec) *Program { return c.entryFor(sp).prog }

// RouterAt returns the day-pinned router for the specification at
// evaluation day t, reusing both the compiled program and — when t was
// recently pinned — the router itself. Routers are immutable and shared
// across goroutines, so handing the same *Router to concurrent queries
// is safe (the subcube evaluator already shares one router across its
// per-cube goroutines).
func (c *Cache) RouterAt(sp *spec.Spec, t caltime.Day) *Router {
	e := c.entryFor(sp)
	slot := &e.routers[int(uint64(t)%routerSlots)]
	if r := slot.Load(); r != nil && r.Day() == t {
		if c.met != nil {
			c.met.RouterCacheHits.Inc()
		}
		return r
	}
	// At only reads the program to build a fresh router, and nothing
	// writes r once it is stored: concurrent callers share it.
	r := e.prog.At(t)
	slot.Store(r)
	return r
}
