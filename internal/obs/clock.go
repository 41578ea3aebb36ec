package obs

import (
	"sync"
	"time"
)

// Clock is the engine's sanctioned source of wall-clock time. Semantic
// packages never call time.Now directly — evaluation time flows in as
// an explicit caltime.Day parameter — and the timing of operational
// stages (sync rounds, query scans) is measured through a Clock so
// tests can substitute a deterministic fake. The root TestNoAmbientClock
// enforces this in every package that evaluates time or times a stage:
// obs owns the time package's ambient clock for them.
type Clock interface {
	// Now returns the current time. Real implementations carry a
	// monotonic reading so Since is immune to wall-clock steps.
	Now() time.Time
	// Since returns the elapsed time between t and Now.
	Since(t time.Time) time.Duration
}

// systemClock is the real clock.
type systemClock struct{}

func (systemClock) Now() time.Time                  { return time.Now() }
func (systemClock) Since(t time.Time) time.Duration { return time.Since(t) }

// System is the process-wide real clock.
var System Clock = systemClock{}

// FakeClock is a manually driven Clock for deterministic timing tests.
// Time moves only through Advance or the per-read Step. Safe for
// concurrent use.
type FakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

// NewFakeClock returns a fake clock frozen at start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{t: start}
}

// Now returns the fake instant, then advances the clock by the
// configured Step (zero by default), so a start/stop measurement pair
// observes exactly one step.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.t
	c.t = c.t.Add(c.step)
	return now
}

// Since returns the elapsed fake time between t and Now.
func (c *FakeClock) Since(t time.Time) time.Duration {
	return c.Now().Sub(t)
}

// Advance moves the clock forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// SetStep makes every subsequent Now advance the clock by d after
// reading it, so code under test that brackets work with Now/Since
// observes a deterministic non-zero duration per bracket.
func (c *FakeClock) SetStep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.step = d
}
