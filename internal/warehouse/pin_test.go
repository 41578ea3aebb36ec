package warehouse

import "testing"

// BenchmarkPin measures what every read pays to hold a snapshot: one pin
// and its unpin. "serial" is one goroutine; "parallel" is GOMAXPROCS
// goroutines pinning in a tight loop, all on the published side's one
// counter, which is the contention the single counter per side accepts.
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
