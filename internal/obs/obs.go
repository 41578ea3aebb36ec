// Package obs is the engine's observability layer: allocation-light
// atomic counters, gauges and fixed-bucket latency histograms, plus an
// optional per-query trace. The paper's whole point is *gradual*
// reduction — storage shrinks and queries change character as NOW
// advances — so the engine must be able to report how many rows a
// synchronization folded, which subcubes a query consulted or pruned,
// and how long the parallel stages took. Every primitive here is safe
// for concurrent use from the parallel scan paths and never allocates
// on the hot path.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; negative deltas belong to Gauge).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (row counts, byte totals).
type Gauge struct{ v atomic.Int64 }

// Set overwrites the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// The latency buckets are linear within each power of two of
// microseconds: below 2^subBits µs there is one bucket per microsecond,
// and each octave [2^k, 2^(k+1)) µs above it is split into 2^subBits
// equal sub-buckets, so a bucket's upper bound is at most 1/32 (3.125 %)
// above any duration in it. The range runs to 2^maxOctave µs (≈ 34 s),
// and the last bucket catches everything above.
const (
	subBits     = 5
	subBuckets  = 1 << subBits
	maxOctave   = 25
	histBuckets = (maxOctave - subBits + 1) * subBuckets
)

// Histogram is a fixed-bucket latency histogram with log-linear
// microsecond bucket bounds. Observing is atomic adds only; no
// allocation, no locks.
type Histogram struct {
	count   atomic.Int64
	sumNano atomic.Int64
	maxNano atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNano.Add(int64(d))
	for {
		cur := h.maxNano.Load()
		if int64(d) <= cur || h.maxNano.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	h.buckets[bucketFor(d)].Add(1)
}

// bucketFor maps a duration to its bucket: the microsecond value itself
// below 2^subBits, otherwise its octave and the next subBits bits below
// the leading one, capped at the last bucket.
func bucketFor(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	if us < subBuckets {
		return int(us)
	}
	k := bits.Len64(us) - 1 // us is in [2^k, 2^(k+1))
	if k >= maxOctave {
		return histBuckets - 1
	}
	return (k-subBits+1)*subBuckets + int(us>>uint(k-subBits)&(subBuckets-1))
}

// bucketBound returns the exclusive upper bound of bucket i.
func bucketBound(i int) time.Duration {
	if i < subBuckets {
		return time.Duration(i+1) * time.Microsecond
	}
	shift := uint(i/subBuckets - 1) // the octave k less subBits
	lo := uint64(subBuckets+i%subBuckets) << shift
	return time.Duration(lo+1<<shift) * time.Microsecond
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNano.Load()) }

// Max returns the largest observed duration.
func (h *Histogram) Max() time.Duration { return time.Duration(h.maxNano.Load()) }

// Mean returns the average observed duration (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNano.Load() / n)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// upper bound of the first bucket whose cumulative count reaches q of the
// total, capped by the observed maximum. At or above 2^subBits µs it is
// at most 3.125 % above the exact quantile. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	need := int64(math.Ceil(q * float64(total)))
	if need < 1 {
		need = 1
	}
	var cum int64
	for i := 0; i < histBuckets-1; i++ {
		cum += h.buckets[i].Load()
		if cum >= need {
			return min(bucketBound(i), h.Max())
		}
	}
	return h.Max()
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count int64
	Sum   time.Duration
	Max   time.Duration
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
}

// Snapshot copies the histogram's current state. Concurrent observers
// may land between the atomic reads; the snapshot is consistent enough
// for reporting, never for accounting.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Max:   h.Max(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// String renders the snapshot on one line.
func (s HistogramSnapshot) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%s p50≤%s p95≤%s max=%s",
		s.Count, fmtDur(s.Mean), fmtDur(s.P50), fmtDur(s.P95), fmtDur(s.Max))
}

// fmtDur trims a duration to a compact human-readable form.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%dµs", d/time.Microsecond)
	}
}

// pad right-aligns counter rows in the String renderings.
func padLabel(b *strings.Builder, label string) {
	fmt.Fprintf(b, "  %-26s", label)
}
