package specexec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/spec"
	"dimred/internal/specexec"
	"dimred/internal/workload"
)

// candidatePool mirrors the random-spec pool of package spec's
// soundness tests: varied granularities, anchored and NOW-relative
// windows, value restrictions and a deletion action.
var candidatePool = []string{
	`aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`,
	`aggregate [Time.month, URL.domain] where NOW - 8 months < Time.month and Time.month <= NOW - 2 months`,
	`aggregate [Time.month, URL.url] where URL.domain_grp = ".com" and Time.month <= NOW - 1 month`,
	`aggregate [Time.quarter, URL.domain] where Time.quarter <= NOW - 2 quarters`,
	`aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 3 quarters`,
	`aggregate [Time.year, URL.domain_grp] where Time.year <= NOW - 1 year`,
	`aggregate [Time.week, URL.domain] where URL.domain_grp = ".edu" and Time.week <= NOW - 10 weeks`,
	`aggregate [Time.month, URL.domain_grp] where URL.domain_grp = ".org" and Time.month <= NOW - 3 months`,
	`aggregate [Time.month, URL.domain] where Time.month <= 2000/3`,
	`delete where Time.year <= NOW - 2 years`,
	`aggregate [Time.day, URL.domain] where URL.domain_grp = ".com" and Time.day <= NOW - 10 days`,
}

func buildClickEnv(t testing.TB) (*workload.ClickObject, *spec.Env) {
	t.Helper()
	obj, err := workload.BuildClickMO(workload.ClickConfig{
		Seed: 7, Start: caltime.Date(2000, 1, 1), Days: 120,
		ClicksPerDay: 5, Domains: 9, URLsPerDomain: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	return obj, env
}

// boundaryDays returns evaluation days that straddle every calendar
// boundary the pool's windows can pivot on: a dense daily sweep over
// the data range plus the first day (±1) of every month for two more
// years, so month, quarter and year windows flip inside the sampled
// set rather than between samples.
func boundaryDays() []caltime.Day {
	var days []caltime.Day
	for d := caltime.Date(2000, 1, 1); d <= caltime.Date(2000, 7, 15); d++ {
		days = append(days, d)
	}
	for y := 2000; y <= 2002; y++ {
		for m := 1; m <= 12; m++ {
			first := caltime.Date(y, m, 1)
			days = append(days, first-1, first, first+1)
		}
	}
	return days
}

// sampleCells draws base-granularity cells from the MO plus, for each,
// its roll-up to the aggregation level an accepted spec assigns at a
// mid-stream day — the coarser cells the subcube engine routes.
func sampleCells(t *testing.T, obj *workload.ClickObject, s *spec.Spec, stride int) [][]mdm.ValueID {
	t.Helper()
	schema := obj.Schema
	mid := caltime.Date(2000, 9, 1)
	var cells [][]mdm.ValueID
	for f := 0; f < obj.MO.Len(); f += stride {
		cell := obj.MO.Refs(mdm.FactID(f))
		cells = append(cells, cell)
		if s.DeletedBy(cell, mid) != nil {
			continue
		}
		level, _ := s.AggLevel(cell, mid)
		up := make([]mdm.ValueID, len(cell))
		coarser := false
		for i, d := range schema.Dims {
			up[i] = d.AncestorAt(cell[i], level[i])
			if up[i] == mdm.NoValue {
				t.Fatalf("no ancestor for %v at %v", cell, level)
			}
			if up[i] != cell[i] {
				coarser = true
			}
		}
		if coarser {
			cells = append(cells, up)
		}
	}
	return cells
}

// compareCell checks every router entry point against the interpreted
// specification for one (cell, day) pair.
func compareCell(t *testing.T, s *spec.Spec, r *specexec.Router, cell []mdm.ValueID, at caltime.Day) {
	t.Helper()
	if got, want := r.DeletedBy(cell), s.DeletedBy(cell, at); got != want {
		t.Fatalf("DeletedBy(%v) at %v: compiled %v, interpreted %v", cell, at, got, want)
	}
	n := len(cell)
	level := make(mdm.Granularity, n)
	resp := make([]*spec.Action, n)
	r.AggLevelInto(cell, level, resp)
	wantLevel, wantResp := s.AggLevel(cell, at)
	for i := range level {
		if level[i] != wantLevel[i] {
			t.Fatalf("AggLevel(%v) at %v dim %d: compiled %v, interpreted %v", cell, at, i, level, wantLevel)
		}
		if resp[i] != wantResp[i] {
			t.Fatalf("AggLevel resp(%v) at %v dim %d: compiled %v, interpreted %v", cell, at, i, resp[i], wantResp[i])
		}
	}
}

// TestRouterDifferential draws random specifications from the pool and
// checks, for every sampled cell (base and rolled-up) and every
// boundary-straddling evaluation day, that the compiled router agrees
// with the interpreted specification on DeletedBy and AggLevel (levels
// and responsibility).
func TestRouterDifferential(t *testing.T) {
	obj, env := buildClickEnv(t)
	rng := rand.New(rand.NewSource(41))
	days := boundaryDays()
	accepted := 0
	for trial := 0; trial < 25 && accepted < 8; trial++ {
		perm := rng.Perm(len(candidatePool))
		n := 1 + rng.Intn(4)
		var actions []*spec.Action
		for i := 0; i < n; i++ {
			actions = append(actions, spec.MustCompileString(fmt.Sprintf("r%d", i), candidatePool[perm[i]], env))
		}
		s, err := spec.New(env, actions...)
		if err != nil {
			continue // rejected by the decision procedures
		}
		accepted++
		cells := sampleCells(t, obj, s, 11)
		prog := specexec.Compile(s)
		for _, at := range days {
			r := prog.At(at)
			if r.Day() != at {
				t.Fatalf("Router.Day() = %v, want %v", r.Day(), at)
			}
			for _, cell := range cells {
				compareCell(t, s, r, cell, at)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no random spec accepted; pool too hostile")
	}
	t.Logf("verified %d accepted specs over %d days", accepted, len(days))
}

// TestRouterOutOfDomainFallback: values added to a dimension after
// compilation are outside the bitset domain; the router must detect
// them and agree with the interpreted path instead of misprobing.
func TestRouterOutOfDomainFallback(t *testing.T) {
	obj, env := buildClickEnv(t)
	s, err := spec.New(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env),
		spec.MustCompileString("del", `delete where Time.year <= NOW - 2 years`, env))
	if err != nil {
		t.Fatal(err)
	}
	prog := specexec.Compile(s)

	// Grow both dimensions past the compile-time snapshot.
	newURL, err := obj.URL.EnsureURL("http://www.latecomer.com/page/0")
	if err != nil {
		t.Fatal(err)
	}
	newDay := obj.Time.EnsureDay(caltime.Date(2005, 6, 1))

	days := []caltime.Day{
		caltime.Date(2000, 3, 1), caltime.Date(2000, 12, 31),
		caltime.Date(2002, 1, 1), caltime.Date(2005, 7, 1), caltime.Date(2008, 1, 1),
	}
	oldDay := obj.MO.Refs(0)[0]
	oldURL := obj.MO.Refs(0)[1]
	cells := [][]mdm.ValueID{
		{oldDay, newURL},
		{newDay, oldURL},
		{newDay, newURL},
	}
	for _, at := range days {
		r := prog.At(at)
		for _, cell := range cells {
			compareCell(t, s, r, cell, at)
		}
	}
}

// TestRouterProbesAllocationFree pins the tentpole's allocation
// contract: for in-domain cells, DeletedBy and AggLevelInto allocate
// nothing per probe.
func TestRouterProbesAllocationFree(t *testing.T) {
	obj, env := buildClickEnv(t)
	s, err := spec.New(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env),
		spec.MustCompileString("q", `aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`, env),
		spec.MustCompileString("del", `delete where Time.year <= NOW - 2 years`, env))
	if err != nil {
		t.Fatal(err)
	}
	r := specexec.Compile(s).At(caltime.Date(2000, 9, 1))
	cell := obj.MO.Refs(0)
	n := len(cell)
	level := make(mdm.Granularity, n)
	resp := make([]*spec.Action, n)
	var sink int
	allocs := testing.AllocsPerRun(1000, func() {
		if r.DeletedBy(cell) != nil {
			sink++
		}
		r.AggLevelInto(cell, level, resp)
	})
	if allocs != 0 {
		t.Fatalf("router probe allocated %.1f times per run, want 0", allocs)
	}
	_ = sink
}

// TestProgramAccounting checks the program's introspection surface:
// the bitset byte gauge is positive for a spec with plain tests.
func TestProgramAccounting(t *testing.T) {
	_, env := buildClickEnv(t)
	s, err := spec.New(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.url] where URL.domain_grp = ".com" and Time.month <= NOW - 1 month`, env))
	if err != nil {
		t.Fatal(err)
	}
	prog := specexec.Compile(s)
	if prog.BitsetBytes() <= 0 {
		t.Fatalf("BitsetBytes() = %d, want > 0 for a spec with a plain URL test", prog.BitsetBytes())
	}
}

// TestRouterSameVerdicts pins the day-router equivalence the
// incremental Sync rests on: month- and quarter-unit NOW bounds pin the
// same masks on every day of a month and different ones across a month
// boundary, a day-unit bound differs from one day to the next, and
// routers of two programs are never the same.
func TestRouterSameVerdicts(t *testing.T) {
	_, env := buildClickEnv(t)
	monthly, err := spec.New(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env),
		spec.MustCompileString("q", `aggregate [Time.quarter, URL.domain_grp] where URL.domain_grp = ".com" and Time.quarter <= NOW - 1 quarter`, env))
	if err != nil {
		t.Fatal(err)
	}
	prog := specexec.Compile(monthly)
	mid := prog.At(caltime.Date(2000, 5, 10))
	for _, c := range []struct {
		name string
		at   caltime.Day
		want bool
	}{
		{"same day", caltime.Date(2000, 5, 10), true},
		{"next day", caltime.Date(2000, 5, 11), true},
		{"first and last of the month", caltime.Date(2000, 5, 31), true},
		{"month boundary", caltime.Date(2000, 6, 1), false},
		{"quarter boundary", caltime.Date(2000, 7, 1), false},
	} {
		o := prog.At(c.at)
		if got := mid.SameVerdicts(o); got != c.want {
			t.Errorf("%s: SameVerdicts = %v, want %v", c.name, got, c.want)
		}
		if got := o.SameVerdicts(mid); got != c.want {
			t.Errorf("%s (reversed): SameVerdicts = %v, want %v", c.name, got, c.want)
		}
	}
	if other := specexec.Compile(monthly).At(caltime.Date(2000, 5, 10)); mid.SameVerdicts(other) {
		t.Error("routers of two programs reported the same verdicts")
	}

	daily, err := spec.New(env,
		spec.MustCompileString("d", `aggregate [Time.day, URL.domain] where Time.day <= NOW - 30 days`, env))
	if err != nil {
		t.Fatal(err)
	}
	dprog := specexec.Compile(daily)
	if dprog.At(caltime.Date(2000, 5, 10)).SameVerdicts(dprog.At(caltime.Date(2000, 5, 11))) {
		t.Error("day-unit bound: consecutive days reported the same verdicts")
	}
}

// TestRouterDomainComplete: the domain is complete until a dimension
// value is added after compilation; a fresh compile covers it again.
func TestRouterDomainComplete(t *testing.T) {
	obj, env := buildClickEnv(t)
	s, err := spec.New(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env))
	if err != nil {
		t.Fatal(err)
	}
	at := caltime.Date(2000, 9, 1)
	r := specexec.Compile(s).At(at)
	if !r.DomainComplete() {
		t.Fatal("freshly compiled program reports an incomplete domain")
	}
	obj.Time.EnsureDay(caltime.Date(2005, 6, 1))
	if r.DomainComplete() {
		t.Fatal("domain still complete after a day was added post-compile")
	}
	if !specexec.Compile(s).At(at).DomainComplete() {
		t.Fatal("recompiled program does not cover the grown domain")
	}
}
