package subcube

import (
	"testing"

	"dimred/internal/core"
	"dimred/internal/dims"
	"dimred/internal/spec"
)

// deletionSpec ages data month -> quarter -> deleted.
func deletionSpec(t *testing.T) (*dims.PaperObject, *spec.Spec) {
	t.Helper()
	p := dims.MustPaperMO()
	env, err := spec.NewEnv(p.Schema, "Time", p.Time)
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.New(env,
		spec.MustCompileString("a1",
			`aggregate [Time.month, URL.domain] where URL.domain_grp = ".com" and NOW - 12 months < Time.month and Time.month <= NOW - 6 months`, env),
		spec.MustCompileString("a2",
			`aggregate [Time.quarter, URL.domain] where URL.domain_grp = ".com" and Time.quarter <= NOW - 4 quarters`, env),
		spec.MustCompileString("purge",
			`delete where Time.year <= NOW - 4 years`, env),
	)
	if err != nil {
		t.Fatal(err)
	}
	return p, s
}

func TestDeletionActionHasNoCube(t *testing.T) {
	_, s := deletionSpec(t)
	cs, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	// bottom + (month, domain) + (quarter, domain); no all-top cube.
	if len(cs.Cubes()) != 3 {
		t.Fatalf("cubes = %d, want 3", len(cs.Cubes()))
	}
}

func TestDeletionSyncRemovesOldRows(t *testing.T) {
	p, s := deletionSpec(t)
	cs, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.InsertMO(p.MO); err != nil {
		t.Fatal(err)
	}
	// 2002: the 1999 facts are quarter-level, nothing deleted.
	if _, err := cs.Sync(day(t, "2002/6/1")); err != nil {
		t.Fatal(err)
	}
	if cs.DeletedFacts() != 0 {
		t.Errorf("deleted = %d at 2002", cs.DeletedFacts())
	}
	// 2004: the 1999 and 2000 facts fall past NOW - 4 years.
	if _, err := cs.Sync(day(t, "2004/6/1")); err != nil {
		t.Fatal(err)
	}
	if cs.DeletedFacts() != 7 {
		t.Errorf("deleted = %d at 2004, want 7", cs.DeletedFacts())
	}
	if cs.TotalRows() != 0 {
		t.Errorf("rows = %d after full deletion", cs.TotalRows())
	}
	// Reduce agrees: the functional semantics drops the same facts.
	res, err := core.Reduce(s, p.MO, day(t, "2004/6/1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.MO.Len() != 0 {
		t.Errorf("Reduce kept %d facts", res.MO.Len())
	}
	if got := len(res.Deleted["purge"]); got != 7 {
		t.Errorf("Reduce.Deleted = %d, want 7", got)
	}
}

func TestDeletionQueriesSkipDoomedRowsWhenStale(t *testing.T) {
	// In the un-synchronized state, rows already past their deletion
	// time must not appear in query answers.
	p, s := deletionSpec(t)
	cs, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.InsertMO(p.MO); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Sync(day(t, "2002/6/1")); err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(`aggregate [Time.TOP, URL.TOP]`, s.Env())
	// Query far in the future without synchronizing: everything doomed.
	res, err := cs.Evaluate(q, day(t, "2005/1/1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("stale query returned %d facts, want 0:\n%s", res.Len(), res.Dump())
	}
	// At the sync time itself the data is all present.
	res, err = cs.Evaluate(q, day(t, "2002/6/1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Measure(0, 1) != 4165 {
		t.Errorf("synced query = %v", res.Dump())
	}
}

func TestDeletionApplySpecDropsRows(t *testing.T) {
	p, s := deletionSpec(t)
	cs, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.InsertMO(p.MO); err != nil {
		t.Fatal(err)
	}
	at := day(t, "2004/6/1")
	// ApplySpec at a time past the deletion horizon must drop the rows
	// during the rebuild.
	if err := cs.ApplySpec(s, at); err != nil {
		t.Fatal(err)
	}
	if cs.TotalRows() != 0 || cs.DeletedFacts() != 7 {
		t.Errorf("rows=%d deleted=%d after ApplySpec", cs.TotalRows(), cs.DeletedFacts())
	}
	// The metric counts the same deletions: a snapshot reload seeds it
	// from DeletedFacts, so any gap would show as a jump across a restart.
	if got := cs.Metrics().FactsDeleted.Load(); got != 7 {
		t.Errorf("FactsDeleted = %d after ApplySpec, want 7", got)
	}
}
