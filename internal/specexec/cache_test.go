package specexec_test

import (
	"sync"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/obs"
	"dimred/internal/spec"
	"dimred/internal/specexec"
)

// cacheSpec builds a one-action spec plus a second action that the
// decision procedures accept as an insertion, so tests can drive the
// generation forward.
func cacheSpec(t *testing.T) (*spec.Spec, *spec.Action) {
	t.Helper()
	_, env := buildClickEnv(t)
	s, err := spec.New(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env))
	if err != nil {
		t.Fatal(err)
	}
	return s, spec.MustCompileString("del", `delete where Time.year <= NOW - 2 years`, env)
}

// TestCacheGenerationKeyed pins the cache contract: an unchanged
// (spec, generation) pair reuses the compiled program, a committed
// mutation forces exactly one recompile, and a rejected mutation —
// which leaves the generation alone — does not.
func TestCacheGenerationKeyed(t *testing.T) {
	s, del := cacheSpec(t)
	met := obs.NewMetrics()
	c := specexec.NewCache(met)

	p1 := c.ProgramFor(s)
	if p2 := c.ProgramFor(s); p2 != p1 {
		t.Fatal("second ProgramFor with unchanged generation recompiled")
	}
	snap := met.Snapshot()
	if snap.ProgramCompiles != 1 || snap.ProgramCacheMisses != 1 || snap.ProgramCacheHits != 1 {
		t.Fatalf("after 2 lookups: compiles=%d misses=%d hits=%d, want 1/1/1",
			snap.ProgramCompiles, snap.ProgramCacheMisses, snap.ProgramCacheHits)
	}
	if met.BitsetBytes.Load() != p1.BitsetBytes() {
		t.Fatalf("BitsetBytes gauge = %d, want the retained program's %d",
			met.BitsetBytes.Load(), p1.BitsetBytes())
	}

	// A rejected mutation leaves the generation — and the cache — alone.
	gen := s.Generation()
	if err := s.Insert(nil); err == nil {
		t.Fatal("Insert(nil) unexpectedly accepted")
	}
	if s.Generation() != gen {
		t.Fatalf("rejected Insert bumped the generation: %d -> %d", gen, s.Generation())
	}
	if c.ProgramFor(s) != p1 {
		t.Fatal("rejected Insert invalidated the cache")
	}

	// A committed mutation bumps the generation and forces one recompile.
	if err := s.Insert(del); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != gen+1 {
		t.Fatalf("Insert bumped generation to %d, want %d", s.Generation(), gen+1)
	}
	p3 := c.ProgramFor(s)
	if p3 == p1 {
		t.Fatal("ProgramFor returned the stale pre-mutation program")
	}
	if p4 := c.ProgramFor(s); p4 != p3 {
		t.Fatal("post-mutation program not cached")
	}
	if got := met.Snapshot().ProgramCompiles; got != 2 {
		t.Fatalf("ProgramCompiles = %d after one mutation, want 2", got)
	}

	// Delete is a committed mutation too.
	if err := s.Delete(nil, caltime.Date(2000, 9, 1), "del"); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != gen+2 {
		t.Fatalf("Delete bumped generation to %d, want %d", s.Generation(), gen+2)
	}
	if c.ProgramFor(s) == p3 {
		t.Fatal("ProgramFor returned the stale pre-Delete program")
	}
}

// TestCacheRouterDay checks the day-keyed router slots: same day reuses
// the pinned router, other days pin their own, a committed spec
// mutation invalidates every pinned router, and negative days (before
// the epoch) index safely.
func TestCacheRouterDay(t *testing.T) {
	s, del := cacheSpec(t)
	met := obs.NewMetrics()
	c := specexec.NewCache(met)

	d := caltime.Date(2000, 9, 1)
	r1 := c.RouterAt(s, d)
	if r1.Day() != d {
		t.Fatalf("RouterAt pinned day %v, want %v", r1.Day(), d)
	}
	if r2 := c.RouterAt(s, d); r2 != r1 {
		t.Fatal("same-day RouterAt re-pinned a new router")
	}
	if got := met.Snapshot().RouterCacheHits; got != 1 {
		t.Fatalf("RouterCacheHits = %d after one reuse, want 1", got)
	}

	// A different day pins its own router without evicting r1 (distinct
	// slot for adjacent days).
	r3 := c.RouterAt(s, d+1)
	if r3 == r1 || r3.Day() != d+1 {
		t.Fatalf("RouterAt(d+1) = day %v (same router %v)", r3.Day(), r3 == r1)
	}
	if c.RouterAt(s, d) != r1 {
		t.Fatal("pinning an adjacent day evicted the original router")
	}

	// Days before the epoch are negative; the slot index must not be.
	neg := caltime.Day(-3)
	if r := c.RouterAt(s, neg); r.Day() != neg {
		t.Fatalf("RouterAt(%v) pinned day %v", neg, r.Day())
	}

	// A committed mutation drops every pinned router with the program.
	if err := s.Insert(del); err != nil {
		t.Fatal(err)
	}
	r4 := c.RouterAt(s, d)
	if r4 == r1 {
		t.Fatal("spec mutation did not invalidate the pinned router")
	}
	if r4.Day() != d {
		t.Fatalf("post-mutation router pinned day %v, want %v", r4.Day(), d)
	}
}

// TestCacheCloneCarriesProgram: the cache cloned for a Spec.Clone starts
// with the program and pinned routers of the original, bound to the
// clone — no compile, no re-pin, the same verdicts — and shares nothing
// a mutation of either specification can reach. A cache that holds
// nothing current for the cloned specification clones empty.
func TestCacheCloneCarriesProgram(t *testing.T) {
	s, del := cacheSpec(t)
	met := obs.NewMetrics()
	c := specexec.NewCache(met)
	d := caltime.Date(2000, 9, 1)
	r := c.RouterAt(s, d)

	s2 := s.Clone()
	c2 := c.Clone(s, s2)
	before := met.Snapshot()
	p2 := c2.ProgramFor(s2)
	r2 := c2.RouterAt(s2, d)
	if delta := met.Snapshot().Sub(before); delta.ProgramCompiles != 0 || delta.ProgramCacheMisses != 0 || delta.RouterCacheHits != 1 {
		t.Fatalf("first lookups through the clone: compiles=%d misses=%d router hits=%d, want 0/0/1",
			delta.ProgramCompiles, delta.ProgramCacheMisses, delta.RouterCacheHits)
	}
	if p2 == c.ProgramFor(s) || p2.Spec() != s2 || r2 == r {
		t.Fatal("the clone serves the original's program or router instead of ones bound to the cloned specification")
	}
	if !r2.SameVerdicts(c2.RouterAt(s2, d+1)) || r2.SameVerdicts(r) {
		t.Fatal("cloned routers must compare among themselves and never with the original's")
	}
	cell := make([]mdm.ValueID, len(s.Env().Schema.Dims))
	lvA, lvB := make(mdm.Granularity, len(cell)), make(mdm.Granularity, len(cell))
	r.AggLevelInto(cell, lvA, nil)
	r2.AggLevelInto(cell, lvB, nil)
	if !s.Env().Schema.GranEq(lvA, lvB) {
		t.Fatalf("cloned router levels %v, original %v", lvB, lvA)
	}

	// Mutating the original recompiles the original's cache only.
	if err := s.Insert(del); err != nil {
		t.Fatal(err)
	}
	before = met.Snapshot()
	if c2.ProgramFor(s2) != p2 || c.ProgramFor(s) == nil {
		t.Fatal("mutating the original specification disturbed the clone's cache")
	}
	if delta := met.Snapshot().Sub(before); delta.ProgramCompiles != 1 {
		t.Fatalf("compiles after mutating the original = %d, want 1 (the original's)", delta.ProgramCompiles)
	}

	// Nothing to carry: a cache that is empty, or holds the program of
	// another specification — here one at the very generation of the
	// clone, which a generation check alone would take for a hit —
	// clones cold.
	other, err := spec.New(s.Env(), del)
	if err != nil {
		t.Fatal(err)
	}
	s3 := s2.Clone()
	if other.Generation() != s3.Generation() {
		t.Fatalf("fixture: generations %d and %d differ", other.Generation(), s3.Generation())
	}
	foreign := specexec.NewCache(met)
	foreign.ProgramFor(other)
	for name, cold := range map[string]*specexec.Cache{
		"empty cache":   specexec.NewCache(met).Clone(s2, s3),
		"foreign cache": foreign.Clone(s2, s3),
	} {
		before = met.Snapshot()
		if p := cold.ProgramFor(s3); p.Spec() != s3 {
			t.Errorf("%s: served a program of another specification", name)
		}
		if delta := met.Snapshot().Sub(before); delta.ProgramCompiles != 1 {
			t.Errorf("%s: compiles = %d on first lookup, want 1", name, delta.ProgramCompiles)
		}
	}
}

// TestCacheAdoptCarriesRouters: levelling one side of a left-right pair
// hands it the routers the other pinned meanwhile, bound to its own
// program, so a day is pinned once for both; a cache with nothing current
// of its own takes the other's whole, and one facing a cache of another
// generation is left alone.
func TestCacheAdoptCarriesRouters(t *testing.T) {
	s, del := cacheSpec(t)
	met := obs.NewMetrics()
	theirs := specexec.NewCache(met)
	d := caltime.Date(2000, 9, 1)
	theirs.RouterAt(s, d)
	s2 := s.Clone()
	mine := theirs.Clone(s, s2)
	prog := mine.ProgramFor(s2)

	// The other side moves on two days; d+4 takes d's slot, there and —
	// adopted — here.
	r1, r4 := theirs.RouterAt(s, d+1), theirs.RouterAt(s, d+4)
	mine.Adopt(theirs, s, s2)
	before := met.Snapshot()
	m1, m4 := mine.RouterAt(s2, d+1), mine.RouterAt(s2, d+4)
	if delta := met.Snapshot().Sub(before); delta.RouterCacheHits != 2 || delta.ProgramCompiles != 0 {
		t.Fatalf("lookups of adopted days: router hits=%d compiles=%d, want 2/0", delta.RouterCacheHits, delta.ProgramCompiles)
	}
	if m1 == r1 || m4 == r4 || !m1.SameVerdicts(m4) || m1.SameVerdicts(r1) {
		t.Fatal("adopted routers must be bound to the adopting cache's program, not shared with the source")
	}
	if mine.ProgramFor(s2) != prog {
		t.Fatal("adopting routers replaced the program the cache already held")
	}

	// A cache with nothing current takes the source's entry whole.
	s3 := s.Clone()
	empty := specexec.NewCache(met)
	empty.Adopt(theirs, s, s3)
	before = met.Snapshot()
	if p := empty.ProgramFor(s3); p.Spec() != s3 {
		t.Fatal("adopted program is bound to another specification")
	}
	empty.RouterAt(s3, d+4)
	if delta := met.Snapshot().Sub(before); delta.ProgramCompiles != 0 || delta.RouterCacheHits != 1 {
		t.Fatalf("first lookups through an adopted entry: compiles=%d router hits=%d, want 0/1", delta.ProgramCompiles, delta.RouterCacheHits)
	}

	// The source moved to another generation: nothing of it fits.
	if err := s.Insert(del); err != nil {
		t.Fatal(err)
	}
	theirs.RouterAt(s, d+2)
	mine.Adopt(theirs, s, s2)
	before = met.Snapshot()
	mine.RouterAt(s2, d+2)
	if delta := met.Snapshot().Sub(before); delta.RouterCacheHits != 0 || delta.ProgramCompiles != 0 {
		t.Fatalf("after a foreign-generation Adopt: router hits=%d compiles=%d, want a fresh pin on the kept program (0/0)",
			delta.RouterCacheHits, delta.ProgramCompiles)
	}
}

// TestCacheConcurrentLookups hammers one cold cache from many
// goroutines (run under -race in CI): duplicate compiles on the
// publication race are fine, but every caller must get a program for
// the right spec and a router for the day it asked.
func TestCacheConcurrentLookups(t *testing.T) {
	s, _ := cacheSpec(t)
	c := specexec.NewCache(obs.NewMetrics())
	days := []caltime.Day{
		caltime.Date(2000, 3, 1), caltime.Date(2000, 9, 1),
		caltime.Date(2001, 1, 1), caltime.Date(2002, 6, 15),
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if p := c.ProgramFor(s); p.Spec() != s {
					errs <- "ProgramFor returned a program for another spec"
					return
				}
				d := days[(g+i)%len(days)]
				if r := c.RouterAt(s, d); r.Day() != d {
					errs <- "RouterAt returned a router pinned to another day"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
