package workload

import (
	"math/rand"
	"sort"

	"dimred/internal/caltime"
)

// OutOfOrderConfig parameterizes the out-of-order click stream: the
// paper's §1 ISP scenario as it actually occurs in production, where
// facts arrive continuously and a fraction of them arrive days after
// the event they record — potentially after the warehouse has already
// reduced the region their day falls in.
type OutOfOrderConfig struct {
	ClickConfig
	// LateFraction is the probability a click arrives after its event
	// day, clamped to [0, 1]; 0 disables lateness.
	LateFraction float64
	// MeanLateDays is the mean of the exponential lateness distribution
	// for late clicks; default MaxLateDays/4.
	MeanLateDays float64
	// MaxLateDays caps the lateness of any single click; default 45 —
	// comfortably past a "reduce after a month" action's horizon, so a
	// late tail lands inside reduced regions.
	MaxLateDays int
}

func (c OutOfOrderConfig) withDefaults() OutOfOrderConfig {
	c.ClickConfig = c.ClickConfig.withDefaults()
	if c.LateFraction < 0 {
		c.LateFraction = 0
	}
	if c.LateFraction > 1 {
		c.LateFraction = 1
	}
	if c.MaxLateDays <= 0 {
		c.MaxLateDays = 45
	}
	if c.MeanLateDays <= 0 {
		c.MeanLateDays = float64(c.MaxLateDays) / 4
	}
	return c
}

// ArrivingClick is a click fact together with its arrival day: the day
// the warehouse learns about it, ≥ the event day it records.
type ArrivingClick struct {
	Click
	Arrival caltime.Day
}

// Late reports whether the click arrived after its event day.
func (a ArrivingClick) Late() bool { return a.Arrival > a.Day }

// GenerateOutOfOrder streams the configured click workload in arrival
// order: each click is generated in event-day order (the same stream
// GenerateClicks yields for the embedded config), assigned an arrival
// day — the event day itself, or for a LateFraction of clicks an
// exponentially distributed number of days later, capped at MaxLateDays
// — and delivered to fn sorted by arrival (stably, so same-arrival
// clicks keep event order). Deterministic under Seed.
func GenerateOutOfOrder(cfg OutOfOrderConfig, fn func(ArrivingClick) error) error {
	cfg = cfg.withDefaults()
	var stream []ArrivingClick
	err := GenerateClicks(cfg.ClickConfig, func(c Click) error {
		stream = append(stream, ArrivingClick{Click: c, Arrival: c.Day})
		return nil
	})
	if err != nil {
		return err
	}
	// A distinct deterministic source for lateness, so the embedded
	// click stream is bit-identical to the in-order one.
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	for i := range stream {
		if cfg.LateFraction == 0 || rng.Float64() >= cfg.LateFraction {
			continue
		}
		late := 1 + int(rng.ExpFloat64()*cfg.MeanLateDays)
		if late > cfg.MaxLateDays {
			late = cfg.MaxLateDays
		}
		stream[i].Arrival += caltime.Day(late)
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Arrival < stream[j].Arrival })
	for _, a := range stream {
		if err := fn(a); err != nil {
			return err
		}
	}
	return nil
}
