package obs

import (
	"math"
	"math/rand"
	"sort"
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
	// The true median is 7999µs; the sub-bucket bound must cover it
	// within 1/32.
	p50 := h.Quantile(0.5)
	if p50 < 7999*time.Microsecond || p50 > 7999*time.Microsecond*33/32 {
		t.Fatalf("P50 bound %v outside [7.999ms, 7.999ms·33/32]", p50)
	}
	if h.Quantile(1) != wantMax {
		t.Fatalf("Quantile(1): got %v, want max %v", h.Quantile(1), wantMax)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, c := range []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Microsecond, 1},
		{31*time.Microsecond + 999, 31},
		{32 * time.Microsecond, 32},    // first sub-bucket of octave 5
		{63 * time.Microsecond, 63},    // last sub-bucket of octave 5
		{64 * time.Microsecond, 64},    // octave 6: sub-buckets 2µs wide
		{65 * time.Microsecond, 64},    // ... so 65µs shares 64µs's
		{1024 * time.Microsecond, 192}, // octave 10
		{time.Hour, histBuckets - 1},   // beyond the last bound: the overflow bucket
	} {
		if got := bucketFor(c.d); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// The buckets tile the range: each bound opens the next bucket, and
	// no bucket is wider than 1/32 of its lower bound (1µs below 32µs).
	for i := 0; i < histBuckets-1; i++ {
		b := bucketBound(i)
		if bucketFor(b-1) != i || bucketFor(b) != i+1 {
			t.Fatalf("bound %v of bucket %d: bucketFor(b-1ns) = %d, bucketFor(b) = %d", b, i, bucketFor(b-1), bucketFor(b))
		}
		if i > 0 {
			lo := bucketBound(i - 1)
			if w := b - lo; w > time.Microsecond && w > lo/subBuckets {
				t.Fatalf("bucket %d [%v, %v) is wider than 1/%d of its lower bound", i, lo, b, subBuckets)
			}
		}
	}
	h.Observe(-time.Second) // clamped, not a panic
	if h.Count() != 1 || h.Sum() != 0 {
		t.Fatalf("negative observation not clamped: count=%d sum=%v", h.Count(), h.Sum())
	}
	if s := h.Snapshot(); s.Count != 1 {
		t.Fatalf("Snapshot count = %d", s.Count)
	}
}

// TestHistogramQuantileError holds every reported p50, p95 and p99 of
// seeded uniform and log-normal latency samples within +3.2 % of the
// exact sample quantile (the sample of rank ⌈q·n⌉), never below it.
func TestHistogramQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range []struct {
		name string
		draw func() time.Duration
	}{
		{"uniform", func() time.Duration {
			return 50*time.Microsecond + time.Duration(rng.Int63n(int64(50*time.Millisecond)))
		}},
		{"lognormal", func() time.Duration {
			return time.Duration(float64(time.Millisecond) * math.Exp(rng.NormFloat64()))
		}},
	} {
		for seed := 0; seed < 5; seed++ {
			var h Histogram
			xs := make([]time.Duration, 1+rng.Intn(20000))
			for i := range xs {
				xs[i] = c.draw()
				h.Observe(xs[i])
			}
			sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
			for _, q := range []float64{0.50, 0.95, 0.99} {
				exact := xs[int(math.Ceil(q*float64(len(xs))))-1]
				if exact < subBuckets*time.Microsecond {
					continue // below 32µs the bound is within 1µs, not 3.2 %
				}
				if got := h.Quantile(q); got < exact || float64(got) > 1.032*float64(exact) {
					t.Errorf("%s #%d (n=%d): p%.0f = %v, exact %v (ratio %.4f)",
						c.name, seed, len(xs), q*100, got, exact, float64(got)/float64(exact))
				}
			}
		}
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
