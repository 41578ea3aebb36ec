package main

import (
	"slices"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending sample, 0 for an empty one.
func percentile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(p*float64(n) + 0.9999999)
	return sorted[min(max(rank, 1), n)-1]
}

// tailPercentile picks the highest tail percentile a sample of n
// observations supports: p99 from 1 000 observations on, otherwise the
// higher of p95/p90 that still has ten observations beyond it. A sample
// too small for either reports p90 and says so in the note.
func tailPercentile(n int) (p float64, note string) {
	switch {
	case n >= 1000:
		return 0.99, "p99"
	case n >= 200:
		return 0.95, "p95 (fewer than 1000 samples)"
	case n >= 100:
		return 0.90, "p90 (fewer than 200 samples)"
	}
	return 0.90, "p90 (fewer than 10 samples beyond it)"
}

// median returns the middle of the values (mean of the middle two for
// an even count), 0 for none. It does not reorder its argument.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(values))
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is (max - min) / median, the run-to-run (or rep-to-rep) range
// as a share of the median; 0 when the median is 0.
func spread(values []float64) float64 {
	m := median(values)
	if m == 0 || len(values) == 0 {
		return 0
	}
	return (slices.Max(values) - slices.Min(values)) / m
}

// quietShare is where in a sample of repeated measurements of one thing
// the reported value sits, counted from the fast end. The builder's host
// only ever slows the program — by 20-50 % for seconds to a minute at a
// time on this allocation-heavy engine — so the fast tenth of a sample
// is the program and the rest is the neighbours: the median of the same
// sample moves 25 % between two runs of the same code, its fast decile
// a third of that (README, "Steadiness").
const quietShare = 0.1

// quietDuration returns the quietShare quantile of the samples.
func quietDuration(samples []time.Duration) time.Duration {
	return percentile(sortedDurations(samples), quietShare)
}

// quietAligned takes repeated runs of one op script — reps[r][i] is op
// i's duration in repetition r — and returns each op's quiet duration.
// Repetitions cut short by a failed op are aligned on the ops they share.
func quietAligned(reps [][]time.Duration) []time.Duration {
	if len(reps) == 0 {
		return nil
	}
	n := len(reps[0])
	for _, r := range reps {
		n = min(n, len(r))
	}
	out := make([]time.Duration, n)
	col := make([]time.Duration, len(reps))
	for i := range out {
		for r := range reps {
			col[r] = reps[r][i]
		}
		out[i] = quietDuration(col)
	}
	return out
}

func sumDurations(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum
}

// medianDuration is median over durations.
func medianDuration(ds []time.Duration) time.Duration {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d)
	}
	return time.Duration(median(vs))
}

func sortedDurations(ds []time.Duration) []time.Duration {
	return slices.Sorted(slices.Values(ds))
}

// span is one timed call from the harness into a layer's public
// function. Spans of one sampled operation share Op; Parent is the
// span that caused this one (0 for an operation's own span).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Rows    int    `json:"rows"`
}

func (s span) duration() int64 { return s.EndNs - s.StartNs }

// selfTimes returns each span's self time: its duration minus the part
// of its interval its child spans cover. Children are clipped to the
// parent's interval and overlapping children (the per-cube scans of one
// evaluation run in parallel) are counted once.
func selfTimes(spans []span) map[int]int64 {
	type interval struct{ lo, hi int64 }
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.StartNs, s.EndNs})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered int64
		edge := s.StartNs
		for _, iv := range ivs {
			lo, hi := max(iv.lo, edge), min(iv.hi, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.duration() - covered
	}
	return self
}
