package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 100; i++ {
		s = append(s, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.5, 50}, {0.9, 90}, {0.95, 95}, {0.99, 99}, {1, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	if got := percentile(s[:1], 0.99); got != 1 {
		t.Errorf("percentile of one sample = %d, want it", got)
	}
}

// The tail percentile must leave at least ten observations beyond it.
func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}} {
		p, note := tailPercentile(c.n)
		if p != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, p, c.want)
		}
		if beyond := float64(c.n) * (1 - p); beyond < 9.999 {
			t.Errorf("tailPercentile(%d) = %v leaves %.1f samples beyond it", c.n, p, beyond)
		}
		if note == "" {
			t.Errorf("tailPercentile(%d) has no note", c.n)
		}
	}
	// Too small for any tail: still reports, and says so.
	if _, note := tailPercentile(40); note != "p90 (fewer than 10 samples beyond it)" {
		t.Errorf("tailPercentile(40) note = %q", note)
	}
}

func TestMedianAndSpread(t *testing.T) {
	reps := []float64{102, 98, 100}
	if got := median(reps); got != 100 {
		t.Errorf("median = %v, want 100", got)
	}
	if reps[0] != 102 {
		t.Error("median reordered its argument")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := spread(reps); got != 0.04 {
		t.Errorf("spread = %v, want (102-98)/100", got)
	}
	if median(nil) != 0 || spread(nil) != 0 || spread([]float64{0, 0}) != 0 {
		t.Error("empty or zero-median input must report 0")
	}
}

// The quiet duration of a sample is its fast decile (nearest rank).
func TestQuietDuration(t *testing.T) {
	var ds []time.Duration
	for i := 40; i >= 1; i-- { // unsorted on purpose
		ds = append(ds, time.Duration(i))
	}
	if got := quietDuration(ds); got != 4 {
		t.Errorf("quietDuration(1..40) = %d, want 4", got)
	}
	if ds[0] != 40 {
		t.Error("quietDuration reordered its argument")
	}
	// Fewer than ten samples: the best one.
	if got := quietDuration(ds[:7]); got != 34 {
		t.Errorf("quietDuration of 7 samples = %d, want their minimum 34", got)
	}
	if quietDuration(nil) != 0 {
		t.Error("quiet duration of nothing must be 0")
	}
}

// Each op of a repeated script gets its own quiet duration, whichever
// repetition it came from; a repetition cut short aligns on the ops all
// repetitions share.
func TestQuietAligned(t *testing.T) {
	reps := [][]time.Duration{
		{10, 90, 30},
		{50, 20, 70},
		{40, 60, 30, 99},
	}
	got := quietAligned(reps)
	want := []time.Duration{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("quietAligned returned %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op %d: quiet duration %d, want %d", i, got[i], want[i])
		}
	}
	if sumDurations(got) != 60 {
		t.Errorf("sum = %d, want 60", sumDurations(got))
	}
	if quietAligned(nil) != nil {
		t.Error("no repetitions must give no ops")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// An evaluation of 100ns with two per-cube scans that ran in
		// parallel (overlapping), one of which outlives the parent, and a
		// combine stage at its end.
		{ID: 1, Parent: 0, StartNs: 1000, EndNs: 1100},
		{ID: 2, Parent: 1, StartNs: 1000, EndNs: 1040},
		{ID: 3, Parent: 1, StartNs: 1010, EndNs: 1200}, // capped at 1100
		// A child entirely outside its parent covers nothing of it: a
		// decomposition re-run after the operation returned.
		{ID: 4, Parent: 0, StartNs: 2000, EndNs: 2050},
		{ID: 5, Parent: 4, StartNs: 2060, EndNs: 2090},
		// Sequential children with a gap.
		{ID: 6, Parent: 0, StartNs: 3000, EndNs: 3100},
		{ID: 7, Parent: 6, StartNs: 3010, EndNs: 3030},
		{ID: 8, Parent: 6, StartNs: 3050, EndNs: 3090},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 0,   // children cover [1000,1100] once
		2: 40,  // leaf
		3: 190, // leaf: its own duration is not capped
		4: 50,  // nothing covered
		5: 30,
		6: 40, // 100 - 20 - 40
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestVerdict(t *testing.T) {
	m := func(better string, bound, med, spr float64) metricResult {
		return metricResult{metricDef: metricDef{Better: better, Bound: bound}, Median: med, Spread: spr}
	}
	for _, c := range []struct {
		name string
		a, b metricResult
		want string
	}{
		{"lower is better, 20% slower", m("lower", 0.1, 100, 0.02), m("lower", 0.1, 120, 0.02), "regressed"},
		{"lower is better, 5% slower", m("lower", 0.1, 100, 0.02), m("lower", 0.1, 105, 0.02), "unchanged"},
		{"lower is better, faster", m("lower", 0.1, 100, 0.02), m("lower", 0.1, 50, 0.02), "unchanged"},
		{"higher is better, 20% less", m("higher", 0.1, 100, 0.02), m("higher", 0.1, 80, 0.02), "regressed"},
		{"higher is better, more", m("higher", 0.1, 100, 0.02), m("higher", 0.1, 130, 0.02), "unchanged"},
		{"spread wider than bound", m("lower", 0.1, 100, 0.02), m("lower", 0.1, 120, 0.3), "unresolved"},
	} {
		if got := verdict(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
