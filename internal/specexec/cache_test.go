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

// TestCacheGenerationKeyed pins the memo contract: an unchanged action
// set reuses the compiled program, a committed mutation forces exactly
// one recompile, and a rejected mutation — which leaves the generation
// and the action set alone — does not.
func TestCacheGenerationKeyed(t *testing.T) {
	s, del := cacheSpec(t)
	met := obs.NewMetrics()

	p1 := specexec.ProgramFor(s, met)
	if p2 := specexec.ProgramFor(s, met); p2 != p1 {
		t.Fatal("second ProgramFor with unchanged generation recompiled")
	}
	snap := met.Snapshot()
	if snap.ProgramCacheMisses != 1 || snap.ProgramCacheHits != 1 {
		t.Fatalf("after 2 lookups: misses=%d hits=%d, want 1/1",
			snap.ProgramCacheMisses, snap.ProgramCacheHits)
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
	if specexec.ProgramFor(s, met) != p1 {
		t.Fatal("rejected Insert invalidated the cache")
	}

	// A committed mutation bumps the generation and forces one recompile.
	if err := s.Insert(del); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != gen+1 {
		t.Fatalf("Insert bumped generation to %d, want %d", s.Generation(), gen+1)
	}
	p3 := specexec.ProgramFor(s, met)
	if p3 == p1 {
		t.Fatal("ProgramFor returned the stale pre-mutation program")
	}
	if p4 := specexec.ProgramFor(s, met); p4 != p3 {
		t.Fatal("post-mutation program not cached")
	}
	if got := met.Snapshot().ProgramCacheMisses; got != 2 {
		t.Fatalf("ProgramCacheMisses = %d after one mutation, want 2", got)
	}

	// Delete is a committed mutation too.
	if err := s.Delete(nil, caltime.Date(2000, 9, 1), "del"); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != gen+2 {
		t.Fatalf("Delete bumped generation to %d, want %d", s.Generation(), gen+2)
	}
	if specexec.ProgramFor(s, met) == p3 {
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

	d := caltime.Date(2000, 9, 1)
	r1 := specexec.RouterAt(s, d, met)
	if r1.Day() != d {
		t.Fatalf("RouterAt pinned day %v, want %v", r1.Day(), d)
	}
	if r2 := specexec.RouterAt(s, d, met); r2 != r1 {
		t.Fatal("same-day RouterAt re-pinned a new router")
	}
	if got := met.Snapshot().RouterCacheHits; got != 1 {
		t.Fatalf("RouterCacheHits = %d after one reuse, want 1", got)
	}

	// A different day pins its own router without evicting r1 (distinct
	// slot for adjacent days).
	r3 := specexec.RouterAt(s, d+1, met)
	if r3 == r1 || r3.Day() != d+1 {
		t.Fatalf("RouterAt(d+1) = day %v (same router %v)", r3.Day(), r3 == r1)
	}
	if specexec.RouterAt(s, d, met) != r1 {
		t.Fatal("pinning an adjacent day evicted the original router")
	}

	// Days before the epoch are negative; the slot index must not be.
	neg := caltime.Day(-3)
	if r := specexec.RouterAt(s, neg, met); r.Day() != neg {
		t.Fatalf("RouterAt(%v) pinned day %v", neg, r.Day())
	}

	// A committed mutation drops every pinned router with the program.
	if err := s.Insert(del); err != nil {
		t.Fatal(err)
	}
	r4 := specexec.RouterAt(s, d, met)
	if r4 == r1 {
		t.Fatal("spec mutation did not invalidate the pinned router")
	}
	if r4.Day() != d {
		t.Fatalf("post-mutation router pinned day %v, want %v", r4.Day(), d)
	}
}

// TestClonesShareTheProgram: the compiled program belongs to the action
// set, so a Spec.Clone starts with it — no compile, no re-pin, routers
// that compare — until either side is mutated, which costs that side one
// compile and leaves the other's program in place. Sharing follows the
// action set, not the generation number: a separately built
// specification at the same generation shares nothing.
func TestClonesShareTheProgram(t *testing.T) {
	s, del := cacheSpec(t)
	met := obs.NewMetrics()
	d := caltime.Date(2000, 9, 1)
	p := specexec.ProgramFor(s, met)
	r := specexec.RouterAt(s, d, met)

	s2 := s.Clone()
	before := met.Snapshot()
	if specexec.ProgramFor(s2, met) != p || specexec.RouterAt(s2, d, met) != r {
		t.Fatal("a specification clone does not serve the original's program and pinned router")
	}
	// A day pinned through the clone is a hit through the original, and
	// the two routers are day-pinnings of one program.
	r1 := specexec.RouterAt(s2, d+1, met)
	if specexec.RouterAt(s, d+1, met) != r1 || !r1.SameVerdicts(r) {
		t.Fatal("a day pinned through the clone is not shared with the original")
	}
	if delta := met.Snapshot().Sub(before); delta.ProgramCacheMisses != 0 || delta.RouterCacheHits != 2 {
		t.Fatalf("lookups across a clone: misses=%d router hits=%d, want 0/2",
			delta.ProgramCacheMisses, delta.RouterCacheHits)
	}

	// Mutating the original costs exactly one compile, on the original.
	if err := s.Insert(del); err != nil {
		t.Fatal(err)
	}
	before = met.Snapshot()
	if specexec.ProgramFor(s2, met) != p || specexec.RouterAt(s2, d, met) != r {
		t.Fatal("mutating the original specification disturbed the clone's program")
	}
	p3 := specexec.ProgramFor(s, met)
	if p3 == p || specexec.ProgramFor(s.Clone(), met) != p3 {
		t.Fatal("the mutated specification must own a new program and share it with its clones")
	}
	if delta := met.Snapshot().Sub(before); delta.ProgramCacheMisses != 1 {
		t.Fatalf("compiles after mutating the original = %d, want 1", delta.ProgramCacheMisses)
	}

	// Another specification at the very generation of the clone — which a
	// generation check alone would take for the same state — is cold.
	other, err := spec.New(s.Env(), del)
	if err != nil {
		t.Fatal(err)
	}
	if other.Generation() != s2.Generation() {
		t.Fatalf("fixture: generations %d and %d differ", other.Generation(), s2.Generation())
	}
	before = met.Snapshot()
	if specexec.ProgramFor(other, met) == p {
		t.Fatal("a separately built specification served another action set's program")
	}
	if delta := met.Snapshot().Sub(before); delta.ProgramCacheMisses != 1 {
		t.Fatalf("compiles on a separately built specification's first lookup = %d, want 1", delta.ProgramCacheMisses)
	}
}

// TestRouterIsAFunctionOfItsActionSet: a pinned router answers from the
// actions it was compiled from even for a cell outside its bitset domain,
// whatever the specification has become since.
func TestRouterIsAFunctionOfItsActionSet(t *testing.T) {
	obj, env := buildClickEnv(t)
	s, err := spec.New(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env))
	if err != nil {
		t.Fatal(err)
	}
	at := caltime.Date(2005, 7, 1)
	r := specexec.RouterAt(s, at, nil)

	// A day added after the compile is out of domain; the deletion action
	// inserted afterwards selects it.
	cell := []mdm.ValueID{obj.Time.EnsureDay(caltime.Date(2002, 6, 1)), obj.MO.Refs(0)[1]}
	want := make(mdm.Granularity, len(cell))
	r.AggLevelInto(cell, want, nil)
	del := spec.MustCompileString("del", `delete where Time.year <= NOW - 2 years`, env)
	if err := s.Insert(del); err != nil {
		t.Fatal(err)
	}
	if s.DeletedBy(cell, at) != del {
		t.Fatal("fixture: the inserted deletion does not select the out-of-domain cell")
	}
	if got := r.DeletedBy(cell); got != nil {
		t.Fatalf("a router pinned before the insert reports the cell deleted by %s", got.Name())
	}
	got := make(mdm.Granularity, len(cell))
	r.AggLevelInto(cell, got, nil)
	if !env.Schema.GranEq(got, want) {
		t.Fatalf("AggLevelInto changed with the specification: %v, was %v", got, want)
	}
	if r2 := specexec.RouterAt(s, at, nil); r2 == r || r2.DeletedBy(cell) != del {
		t.Fatal("the mutated specification's own router must see the deletion")
	}
}

// TestCacheConcurrentLookups hammers one cold memo slot from many
// goroutines, half of them through a clone of the specification (run
// under -race in CI): duplicate compiles on the publication race are
// fine, but every caller must get a router for the day it asked, and
// once the race is over everyone holds the one published program.
func TestCacheConcurrentLookups(t *testing.T) {
	s, _ := cacheSpec(t)
	met := obs.NewMetrics()
	sides := []*spec.Spec{s, s.Clone()}
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
				sp := sides[g%2]
				if specexec.ProgramFor(sp, met) == nil {
					errs <- "ProgramFor returned no program"
					return
				}
				d := days[(g+i)%len(days)]
				if r := specexec.RouterAt(sp, d, met); r.Day() != d {
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
	if specexec.ProgramFor(sides[0], met) != specexec.ProgramFor(sides[1], met) {
		t.Error("the two specifications ended up with different programs")
	}
}
