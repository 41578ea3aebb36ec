package spec

import (
	"slices"
	"strings"
	"testing"
)

// TestGenerationTracksCommittedMutations pins the Generation contract
// the specexec program cache depends on: every committed Insert or
// Delete bumps it exactly once, and rejected mutations — refused before
// the commit funnel or by any of its three conditions — leave the
// generation and the action set alone.
func TestGenerationTracksCommittedMutations(t *testing.T) {
	p, env := paperEnv(t)
	s, err := New(env, MustCompileString("a2", srcA2, env))
	if err != nil {
		t.Fatal(err)
	}
	// New commits through Insert, so a fresh spec is at generation 1
	// even when constructed from several actions.
	if s.Generation() != 1 {
		t.Fatalf("fresh spec generation = %d, want 1", s.Generation())
	}
	if Empty(env).Generation() != 0 {
		t.Fatal("empty spec generation != 0")
	}

	// a1's bounded window is Growing only under a2's coarser cover, so
	// it is insertable now.
	a1 := MustCompileString("a1", srcA1, env)
	if err := s.Insert(a1); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 2 {
		t.Fatalf("after Insert: generation = %d, want 2", s.Generation())
	}

	// Rejected mutations (duplicate name, nil action, unknown delete)
	// must not bump.
	if err := s.Insert(a1); err == nil {
		t.Fatal("duplicate Insert accepted")
	}
	if err := s.Insert(nil); err == nil {
		t.Fatal("nil Insert accepted")
	}
	if err := s.Delete(nil, 0, "nosuch"); err == nil {
		t.Fatal("Delete of unknown action accepted")
	}
	if s.Generation() != 2 {
		t.Fatalf("rejected mutations bumped generation to %d", s.Generation())
	}

	// Rejections inside the funnel, one per condition, each naming its
	// reason: c3 crosses a2, deleting a2 strips a1 of its cover, and
	// deleting both leaves a1 responsible for a fact of the paper's MO.
	before := slices.Clone(s.Actions())
	c3 := MustCompileString("c3", `aggregate [Time.month, URL.domain_grp] where URL.domain_grp = ".com" and Time.month <= 1999/12`, env)
	for _, tc := range []struct {
		reason string
		err    error
	}{
		{"spec: Insert rejected: noncrossing violated", s.Insert(c3)},
		{"spec: Delete rejected: growing violated", s.Delete(nil, 0, "a2")},
		{"spec: Delete rejected: action a1 is responsible", s.Delete(p.MO, day(t, "2000/12/15"), "a1", "a2")},
	} {
		if tc.err == nil || !strings.HasPrefix(tc.err.Error(), tc.reason) {
			t.Errorf("got error %v, want %q", tc.err, tc.reason)
		}
		if s.Generation() != 2 || !slices.Equal(s.Actions(), before) {
			t.Fatalf("%s: rejected mutation left generation %d, actions %v; want 2, %v",
				tc.reason, s.Generation(), s.Actions(), before)
		}
	}

	if err := s.Delete(nil, 0, "a1"); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 3 {
		t.Fatalf("after Delete: generation = %d, want 3", s.Generation())
	}
}
