package warehouse

import (
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/views"
)

// BenchmarkPin measures what every base-path read pays to hold a
// snapshot: one pin and its unpin. "serial" is one goroutine; "parallel"
// is GOMAXPROCS goroutines pinning in a tight loop, all on the published
// side's one counter, which is the contention the single counter per
// side accepts.
func BenchmarkPin(b *testing.B) {
	w, _ := openClickWarehouse(b)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.unpin(w.pin())
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				w.unpin(w.pin())
			}
		})
	})
}

// BenchmarkQueryExactHit measures a Query a materialized view answers as
// stored: the plan probe, the load of the published snapshot, the shape
// counter and the borrow of the view, with no pin. "parallel" is
// GOMAXPROCS goroutines asking at once.
func BenchmarkQueryExactHit(b *testing.B) {
	w, obj := openClickWarehouse(b)
	start := caltime.Date(2000, 1, 1)
	if err := w.AdvanceTo(start + 130); err != nil {
		b.Fatal(err)
	}
	refs, meas := stressRows(b, obj, 500, start)
	err := w.LoadBatch(func(ld func([]mdm.ValueID, []float64) error) error {
		for i := range refs {
			if err := ld(refs[i], meas[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	const src = `aggregate [Time.month, URL.domain]`
	if _, err := w.Query(src); err != nil { // the shape the selector learns
		b.Fatal(err)
	}
	if err := w.EnableViews(views.Config{}); err != nil {
		b.Fatal(err)
	}
	if _, tr, err := w.QueryTraced(src); err != nil || !tr.ViewStored {
		b.Fatalf("the query is not an exact view hit (err %v):\n%s", err, tr)
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.Query(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := w.Query(src); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// TestPinRefusesARetiredSnapshot holds pin's re-check: a reader that
// loaded the published snapshot just before a commit replaced it must not
// come away pinned to it, since that commit may be draining its side to
// level it. tryPin on the retired snapshot fails and leaves its side's
// count at zero; on the published one it succeeds.
func TestPinRefusesARetiredSnapshot(t *testing.T) {
	w, _ := openClickWarehouse(t)
	old := w.cur.Load()
	if err := w.Sync(); err != nil { // one commit: a new snapshot, on the other side
		t.Fatal(err)
	}
	if w.tryPin(old) {
		w.unpin(old)
		t.Fatal("tryPin pinned a snapshot a commit had already retired")
	}
	if n := w.pins[old.side].n.Load(); n != 0 {
		t.Fatalf("a refused pin left the retired side's count at %d, want 0", n)
	}
	cur := w.cur.Load()
	if !w.tryPin(cur) {
		t.Fatal("tryPin refused the published snapshot")
	}
	if n := w.pins[cur.side].n.Load(); n != 1 {
		t.Errorf("a pin of the published snapshot left its side's count at %d, want 1", n)
	}
	w.unpin(cur)
}
