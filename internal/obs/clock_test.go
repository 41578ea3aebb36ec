package obs

import (
	"sync"
	"testing"
	"time"
)

func TestSystemClockMonotonicSince(t *testing.T) {
	start := System.Now()
	if d := System.Since(start); d < 0 {
		t.Errorf("Since went backwards: %v", d)
	}
}

func TestFakeClockAdvance(t *testing.T) {
	t0 := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := NewFakeClock(t0)
	if got := clk.Now(); !got.Equal(t0) {
		t.Fatalf("Now = %v, want %v", got, t0)
	}
	clk.Advance(3 * time.Second)
	if d := clk.Since(t0); d != 3*time.Second {
		t.Errorf("Since = %v, want 3s", d)
	}
}

func TestFakeClockStep(t *testing.T) {
	t0 := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := NewFakeClock(t0)
	clk.SetStep(time.Millisecond)
	start := clk.Now() // returns t0, advances to t0+1ms
	if d := clk.Since(start); d != time.Millisecond {
		t.Errorf("Since = %v, want 1ms", d)
	}
}

// TestFakeClockConcurrent: a FakeClock is shared by goroutines that
// time their own work, as evaluateCubes' per-cube workers do. Under
// -race, each of its methods called beside the others must hold its
// lock, and no read or step may be lost: every Now (Since is one) moves
// the clock by the step, and every Advance by its argument.
func TestFakeClockConcurrent(t *testing.T) {
	const (
		goroutines = 4
		rounds     = 200
		step       = time.Millisecond
		advance    = time.Second
	)
	t0 := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := NewFakeClock(t0)
	clk.SetStep(step)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if d := clk.Since(clk.Now()); d < step {
					t.Errorf("Since = %v, want at least one step", d)
					return
				}
				clk.Advance(advance)
				clk.SetStep(step)
			}
		}()
	}
	wg.Wait()
	want := t0.Add(goroutines * rounds * (2*step + advance))
	if got := clk.Now(); !got.Equal(want) {
		t.Errorf("after the race Now = %v, want %v", got, want)
	}
}

func TestMetricsClockDefaultsToSystem(t *testing.T) {
	m := NewMetrics()
	if m.Clock() != System {
		t.Error("fresh metric set should use the System clock")
	}
	clk := NewFakeClock(time.Unix(0, 0))
	m.SetClock(clk)
	if m.Clock() != Clock(clk) {
		t.Error("SetClock not honored")
	}
}
