package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestShapeStatsConcurrent(t *testing.T) {
	var s ShapeStats
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Record(fmt.Sprintf("shape-%d", i%3))
			}
		}(w)
	}
	wg.Wait()
	counts := s.Counts()
	if len(counts) != 3 {
		t.Fatalf("got %d shapes, want 3", len(counts))
	}
	var total int64
	for k, n := range counts {
		if n <= 0 {
			t.Errorf("shape %s has non-positive count %d", k, n)
		}
		total += n
	}
	if total != workers*per {
		t.Fatalf("total = %d, want %d", total, workers*per)
	}
}

// TestShapeStatsEmpty: a counter that was made but never counted is no
// observed shape.
func TestShapeStatsEmpty(t *testing.T) {
	var s ShapeStats
	s.Counter("never-asked")
	s.Add("never-asked", 0)
	if got := s.Counts(); len(got) != 0 {
		t.Fatalf("empty stats returned %v", got)
	}
}

// TestShapeStatsHeldCounter: a held Counter and Record count into one
// total, so a caller that keeps a shape's counter (a query plan) and one
// that names the shape each time (a prepared query) feed the same trace.
func TestShapeStatsHeldCounter(t *testing.T) {
	var s ShapeStats
	held := s.Counter("shape")
	if s.Counter("shape") != held {
		t.Fatal("a second Counter call made a second counter for the shape")
	}
	const workers, per = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if w%2 == 0 {
					held.Inc()
				} else {
					s.Record("shape")
				}
			}
		}(w)
	}
	wg.Wait()
	s.Add("shape", 5)
	if got := s.Counts()["shape"]; got != workers*per+5 {
		t.Fatalf("count = %d, want %d", got, workers*per+5)
	}
}
