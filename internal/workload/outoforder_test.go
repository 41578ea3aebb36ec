package workload

import (
	"testing"

	"dimred/internal/caltime"
)

func outOfOrderCfg() OutOfOrderConfig {
	return OutOfOrderConfig{
		ClickConfig: ClickConfig{
			Seed: 42, Start: caltime.Date(2000, 1, 1),
			Days: 60, ClicksPerDay: 20, Domains: 5, URLsPerDomain: 3,
		},
		LateFraction: 0.3,
		MaxLateDays:  40,
	}
}

func collect(t *testing.T, cfg OutOfOrderConfig) []ArrivingClick {
	t.Helper()
	var out []ArrivingClick
	if err := GenerateOutOfOrder(cfg, func(a ArrivingClick) error {
		out = append(out, a)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOutOfOrderDeterministicAndComplete(t *testing.T) {
	cfg := outOfOrderCfg()
	a, b := collect(t, cfg), collect(t, cfg)
	if len(a) != cfg.Days*cfg.ClicksPerDay {
		t.Fatalf("stream has %d clicks, want %d", len(a), cfg.Days*cfg.ClicksPerDay)
	}
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestOutOfOrderArrivalInvariants(t *testing.T) {
	cfg := outOfOrderCfg()
	stream := collect(t, cfg)
	late := 0
	var prev caltime.Day
	for i, a := range stream {
		if a.Arrival < a.Day {
			t.Fatalf("click %d arrives before its event day: %+v", i, a)
		}
		if d := int(a.Arrival - a.Day); d > cfg.MaxLateDays {
			t.Fatalf("click %d is %d days late, cap is %d", i, d, cfg.MaxLateDays)
		}
		if i > 0 && a.Arrival < prev {
			t.Fatalf("arrivals out of order at %d: %v after %v", i, a.Arrival, prev)
		}
		prev = a.Arrival
		if a.Late() {
			late++
		}
	}
	frac := float64(late) / float64(len(stream))
	if frac < cfg.LateFraction/2 || frac > cfg.LateFraction*2 {
		t.Fatalf("late fraction %.3f far from configured %.3f", frac, cfg.LateFraction)
	}
}

// TestOutOfOrderEmbedsClickStream pins that the event stream is the
// same clicks GenerateClicks yields for the embedded config — lateness
// only reschedules arrivals, it never invents or drops facts.
func TestOutOfOrderEmbedsClickStream(t *testing.T) {
	cfg := outOfOrderCfg()
	var plain []Click
	if err := GenerateClicks(cfg.ClickConfig, func(c Click) error {
		plain = append(plain, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	seen := map[Click]int{}
	for _, a := range collect(t, cfg) {
		seen[a.Click]++
	}
	want := map[Click]int{}
	for _, c := range plain {
		want[c]++
	}
	if len(seen) != len(want) {
		t.Fatalf("distinct clicks %d vs %d", len(seen), len(want))
	}
	for c, n := range want {
		if seen[c] != n {
			t.Fatalf("click %+v count %d, want %d", c, seen[c], n)
		}
	}
}

func TestOutOfOrderZeroLateFractionIsInOrder(t *testing.T) {
	cfg := outOfOrderCfg()
	cfg.LateFraction = 0
	for i, a := range collect(t, cfg) {
		if a.Late() {
			t.Fatalf("click %d late with LateFraction 0: %+v", i, a)
		}
	}
}
