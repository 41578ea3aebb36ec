package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one counter from many goroutines and
// checks nothing is lost — the property the parallel scan paths rely on.
func TestCounterConcurrent(t *testing.T) {
	const workers, perWorker = 16, 10000
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i%2 == 0 {
					c.Inc()
				} else {
					c.Add(3)
				}
			}
		}()
	}
	wg.Wait()
	want := int64(workers * (perWorker/2 + 3*perWorker/2))
	if got := c.Load(); got != want {
		t.Fatalf("Counter: got %d, want %d", got, want)
	}
}

func TestGaugeConcurrent(t *testing.T) {
	const workers, perWorker = 8, 5000
	var g Gauge
	g.Set(100)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g.Add(2)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := g.Load(); got != 100+int64(workers*perWorker) {
		t.Fatalf("Gauge: got %d, want %d", got, 100+workers*perWorker)
	}
}

// TestHistogramConcurrent checks count/sum/max under concurrent
// observers and that the bucket-derived quantiles bound the data.
func TestHistogramConcurrent(t *testing.T) {
	const workers, perWorker = 8, 2000
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(w*perWorker+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if got, want := h.Count(), int64(workers*perWorker); got != want {
		t.Fatalf("Count: got %d, want %d", got, want)
	}
	n := int64(workers * perWorker)
	wantSum := time.Duration(n*(n-1)/2) * time.Microsecond
	if got := h.Sum(); got != wantSum {
		t.Fatalf("Sum: got %v, want %v", got, wantSum)
	}
	wantMax := time.Duration(n-1) * time.Microsecond
	if got := h.Max(); got != wantMax {
		t.Fatalf("Max: got %v, want %v", got, wantMax)
	}
	if h.Mean() != wantSum/time.Duration(n) {
		t.Fatalf("Mean: got %v", h.Mean())
	}
	// The true median is ~8000µs; the bucket bound must cover it without
	// exceeding the next power of two.
	p50 := h.Quantile(0.5)
	if p50 < 8*time.Millisecond || p50 > 16384*time.Microsecond {
		t.Fatalf("P50 bound %v outside [8ms, 16.384ms]", p50)
	}
	if h.Quantile(1) != wantMax {
		t.Fatalf("Quantile(1): got %v, want max %v", h.Quantile(1), wantMax)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	if got := bucketFor(0); got != 0 {
		t.Fatalf("bucketFor(0) = %d", got)
	}
	if got := bucketFor(time.Microsecond); got != 1 {
		t.Fatalf("bucketFor(1µs) = %d", got)
	}
	// Durations beyond the last bound land in the overflow bucket.
	if got := bucketFor(time.Hour); got != histBuckets-1 {
		t.Fatalf("bucketFor(1h) = %d, want %d", got, histBuckets-1)
	}
	h.Observe(-time.Second) // clamped, not a panic
	if h.Count() != 1 || h.Sum() != 0 {
		t.Fatalf("negative observation not clamped: count=%d sum=%v", h.Count(), h.Sum())
	}
	if s := h.Snapshot(); s.Count != 1 {
		t.Fatalf("Snapshot count = %d", s.Count)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	if s := h.Snapshot().String(); s != "n=0" {
		t.Fatalf("empty snapshot renders %q", s)
	}
}

// TestMetricsSnapshotSub checks the before/after delta helper.
func TestMetricsSnapshotSub(t *testing.T) {
	m := NewMetrics()
	m.Queries.Add(3)
	m.RowsScanned.Add(100)
	before := m.Snapshot()
	m.Queries.Add(2)
	m.RowsScanned.Add(50)
	m.RowsFolded.Add(7)
	d := m.Snapshot().Sub(before)
	if d.Queries != 2 || d.RowsScanned != 50 || d.RowsFolded != 7 {
		t.Fatalf("delta wrong: %+v", d)
	}
}

// TestMetricsConcurrent exercises the full metric set from parallel
// writers while snapshots are taken, mirroring queries-during-stats.
func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.RowsScanned.Add(10)
				m.CubesConsulted.Inc()
				m.QueryDuration.Observe(time.Duration(i) * time.Microsecond)
				m.ViewBytes.Set(int64(i))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = m.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	s := m.Snapshot()
	if s.RowsScanned != 80000 || s.CubesConsulted != 8000 || s.QueryDuration.Count != 8000 {
		t.Fatalf("lost updates: %+v", s)
	}
	if !strings.Contains(s.String(), "rows scanned") {
		t.Fatalf("String() missing rows scanned:\n%s", s)
	}
}

func TestTrace(t *testing.T) {
	tr := &Trace{Query: "aggregate [Time.month, URL.domain]", At: "2001/6/1", Synced: true}
	tr.Cubes = []CubeTrace{
		{Cube: 0, Granularity: "[Time.day, URL.url]", RowsScanned: 90, RowsKept: 30, Duration: time.Millisecond},
		{Cube: 1, Granularity: "[Time.month, URL.domain]", Pruned: true},
	}
	tr.AddStage("scan", 2*time.Millisecond)
	tr.AddStage("combine", time.Millisecond)
	tr.ResultCells = 12
	tr.Total = 3 * time.Millisecond
	if tr.RowsScanned() != 90 || tr.RowsKept() != 30 || tr.CubesPruned() != 1 {
		t.Fatalf("trace totals wrong: %+v", tr)
	}
	out := tr.String()
	for _, want := range []string{"pruned by zone map", "scan rows=90", "stage scan", "1/2 cubes pruned", "(synchronized)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace rendering missing %q:\n%s", want, out)
		}
	}
}
