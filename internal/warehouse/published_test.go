package warehouse

import (
	"testing"
	"time"

	"dimred/internal/subcube"
	"dimred/internal/views"
)

// pinnedSnapshot is one snapshot the gate below holds, with what it
// looked like when pinned.
type pinnedSnapshot struct {
	s *snapshot
	// deep is everything the snapshot reaches. It holds while the pin
	// does: a drained side's cube set is the one thing written after a
	// publish, and only once nobody is pinned to it.
	deep uint64
	// head is the snapshot's own fields and its view set, and cubes the
	// cube set it points at: neither is ever written, even after the
	// snapshot retires.
	head  uint64
	cubes *subcube.CubeSet
}

func pinSnapshot(w *Warehouse) pinnedSnapshot {
	s := w.pin()
	return pinnedSnapshot{s: s, deep: fingerprint(s), head: headPrint(s), cubes: s.cubes}
}

func headPrint(s *snapshot) uint64 {
	head := *s
	head.cubes = nil
	return fingerprint(&head)
}

// TestPublishedSnapshotsNeverChange is the gate of the snapshot rule:
// nothing writes a published snapshot. It runs every reader entry, then
// every writer entry of the lock tables, one at a time, on a warehouse
// with views on. Before an entry it pins the published snapshot and
// fingerprints it; while the entry runs, each snapshot published is
// pinned and fingerprinted in turn, and the one before it is checked and
// released, so that a commit can drain it. Every snapshot must match its
// fingerprint when released, and its own fields and views must still
// match when the entry returns. Reader entries write into the answers
// they get, floors first, and some reader entry must be an exact view
// hit, so a borrowed view answer that forgets to copy is caught too.
// Writes are caught by value, not by the race detector, so the gate
// holds without -race.
func TestPublishedSnapshotsNeverChange(t *testing.T) {
	f := newWriterFixture(t)
	w := f.w
	for i := 1; i < len(f.refs)/4; i++ { // enough rows that a view saves a scan
		if err := loadBatch(f, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.EnableViews(views.Config{}); err != nil {
		t.Fatal(err)
	}

	run := func(method string, call func() error) {
		held := pinSnapshot(w)
		var released []pinnedSnapshot
		release := func(p pinnedSnapshot) {
			if fingerprint(p.s) != p.deep {
				t.Errorf("%s: pinned snapshot %d changed while pinned", method, len(released))
			}
			w.unpin(p.s)
			released = append(released, p)
		}
		done := make(chan error, 1)
		go func() { done <- call() }()
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for running := true; running; {
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("%s: %v", method, err)
				}
				running = false
			case <-tick.C:
			}
			if w.cur.Load() != held.s {
				next := pinSnapshot(w)
				release(held)
				held = next
			}
		}
		release(held)
		for i, p := range released {
			if headPrint(p.s) != p.head || p.s.cubes != p.cubes {
				t.Errorf("%s: pinned snapshot %d's own fields or views changed after publish", method, i)
			}
		}
	}

	before := w.Metrics()
	for _, s := range readerCalls {
		run(s.method, func() error { return s.call(f, 0) })
	}
	if d := w.Metrics().Sub(before); d.ViewHits-d.ViewFolds == 0 {
		t.Error("no reader entry was an exact view hit: the borrowed answers went unchecked")
	}
	for _, entry := range writerCalls {
		for _, s := range entry {
			run(s.method, func() error { return s.call(f, 0) })
		}
	}
	if err := w.StopIngest(); err != nil {
		t.Fatal(err)
	}
}
