package specexec

import (
	"dimred/internal/caltime"
	"dimred/internal/obs"
	"dimred/internal/spec"
)

// routerSlots sizes the per-program day-keyed router memo. Queries
// between two clock advances all ask for the same evaluation day, so a
// handful of direct-mapped slots (day mod routerSlots) covers the
// steady state plus tests that hop between a few nearby days.
const routerSlots = 4

// ProgramFor returns the compiled program of the specification's current
// action set, compiling it when nobody has yet. The program lives in the
// action set's memo slot (Spec.Memo): Spec.Clone shares the slot and a
// committed mutation replaces it, so every specification holding this
// action set — both sides of a warehouse, their clones, a core.Reduce
// over any of them — sees one program, and a mutation costs one compile.
//
// A lookup is one atomic load. A fill is compute-then-swap: nothing is
// locked during compilation, two goroutines racing to fill both compile,
// one publishes and the other keeps its program private to the call —
// both are correct (mutators are externally serialized against readers,
// so the action set cannot change mid-race). met, which may be nil,
// records the hit or the miss and compile.
func ProgramFor(sp *spec.Spec, met *obs.Metrics) *Program {
	slot := sp.Memo()
	if p, _ := slot.Load().(*Program); p != nil {
		if met != nil {
			met.ProgramCacheHits.Inc()
		}
		return p
	}
	p := Compile(sp)
	if met != nil {
		met.ProgramCacheMisses.Inc()
	}
	// BitsetBytes gauges what the slot retains, so only the published
	// program counts; a lost race leaves the winner's figure in place.
	if slot.CompareAndSwap(nil, p) && met != nil {
		met.BitsetBytes.Set(p.BitsetBytes())
	}
	return p
}

// RouterAt returns the router of the specification's current action set
// pinned to evaluation day t, reusing the compiled program and — when t
// was recently pinned through any specification sharing the action set —
// the router itself. Routers are immutable: concurrent queries share one.
func RouterAt(sp *spec.Spec, t caltime.Day, met *obs.Metrics) *Router {
	p := ProgramFor(sp, met)
	slot := &p.routers[int(uint64(t)%routerSlots)]
	if r := slot.Load(); r != nil && r.Day() == t {
		if met != nil {
			met.RouterCacheHits.Inc()
		}
		return r
	}
	// A slot only ever goes from nil (or another day) to a router of the
	// same program: whatever a reader loads is correct for the day it
	// carries.
	r := p.At(t)
	slot.Store(r)
	return r
}
