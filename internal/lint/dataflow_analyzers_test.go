package lint_test

import (
	"testing"

	"dimred/internal/lint"
	"dimred/internal/lint/linttest"
)

func TestPurity(t *testing.T) {
	linttest.Run(t, []*lint.Analyzer{lint.NewPurity()}, map[string]string{
		"internal/obs/obs.go": `package obs

type Clock interface{ Now() int64 }
`,
		"internal/core/agg.go": `package core

import (
	"time"

	"lintfix/internal/obs"
)

var cache = map[string]float64{}
var total float64

//dimred:aggregate
func MergeSum(a, b float64) float64 { return a + b } // pure: fine

//dimred:aggregate
func BadGlobal(a float64) float64 {
	total += a // want "aggregate function BadGlobal writes package variable total"
	return total
}

//dimred:aggregate
func BadClock() int64 {
	return time.Now().Unix() // want "aggregate function BadClock calls time.Now"
}

//dimred:aggregate
func BadObsClock(c obs.Clock) int64 {
	return c.Now() // want "aggregate function BadObsClock reads the clock via obs.Now"
}

//dimred:aggregate
func BadMapRange(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m { // want "ranges over a map"
		s += v
	}
	return s
}

//dimred:aggregate
func BadTransitive(a float64) float64 { return helper(a) }

func helper(a float64) float64 {
	cache["x"] = a // want "helper writes package variable cache; it is reachable from aggregate function BadTransitive"
	return a
}

//dimred:aggregate
func BadPointerWrite(a float64) float64 {
	p := &total
	*p = a // want "writes package variable total through a pointer"
	return a
}

//dimred:aggregate
func BadBranchPointer(a float64, c bool) float64 {
	local := 0.0
	var p *float64
	if c {
		p = &local
	} else {
		p = &total
	}
	*p = a // want "writes package variable total through a pointer"
	return local
}

// Unmarked functions are free to do any of this.
func UnmarkedFree(m map[string]float64) {
	total = 1
	for k := range m {
		cache[k] = 0
	}
}

//dimred:aggregate
func Suppressed(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m { //dimred:allow purity fixture exercises suppression
		s += v
	}
	return s
}

//dimred:aggregate
func SortedFoldOK(keys []string, m map[string]float64) float64 {
	s := 0.0
	for _, k := range keys { // slice iteration is deterministic: fine
		s += m[k]
	}
	return s
}
`,
	})
}

func TestNowflow(t *testing.T) {
	linttest.Run(t, []*lint.Analyzer{lint.NewNowflow(lint.DefaultNowflowRestricted)}, map[string]string{
		"internal/caltime/caltime.go": `package caltime

type Day int64

func Date(y, m, d int) Day           { return Day(y*372 + m*31 + d) }
func ParseDay(s string) (Day, error) { return 0, nil }
`,
		"internal/spec/spec.go": `package spec

import "lintfix/internal/caltime"

type Action struct{ cutoff caltime.Day }

func (a *Action) Applies(t caltime.Day) bool { return t >= a.cutoff }

func EvalOK(a *Action, now caltime.Day) bool {
	return a.Applies(now) // explicit parameter: blessed
}

func EvalBadLiteral(a *Action) bool {
	return a.Applies(caltime.Day(7)) // want "ad-hoc caltime.Day passed as evaluation time"
}

func EvalBadDate(a *Action) bool {
	t := caltime.Date(2024, 1, 1)
	return a.Applies(t) // want "ad-hoc caltime.Day passed as evaluation time"
}

func EvalBadZero(a *Action) bool {
	var t caltime.Day
	return a.Applies(t) // want "ad-hoc caltime.Day passed as evaluation time"
}

func EvalOffsetOK(a *Action, now caltime.Day) bool {
	t := now - 30 // arithmetic anchored at a parameter: blessed
	return a.Applies(t)
}

func EvalReassignedOK(a *Action, now caltime.Day) bool {
	t := caltime.Date(2024, 1, 1)
	t = now // kills the ad-hoc definition before the use
	return a.Applies(t)
}

func EvalBranchBad(a *Action, now caltime.Day, c bool) bool {
	t := now
	if c {
		t = caltime.Date(2000, 1, 1)
	}
	return a.Applies(t) // want "ad-hoc caltime.Day passed as evaluation time"
}

func EvalDataDrivenOK(a *Action, days []caltime.Day) bool {
	for _, d := range days {
		if a.Applies(d) { // range over stored data: blessed
			return true
		}
	}
	return false
}

func EvalFieldOK(a *Action, s *Sched) bool {
	return a.Applies(s.now) // field read: blessed
}

type Sched struct{ now caltime.Day }

func (s *Sched) SetBad() {
	s.now = caltime.Date(1999, 1, 1) // want "assigned an ad-hoc day"
}

func (s *Sched) SetOK(t caltime.Day) {
	s.now = t
}

func EvalSuppressed(a *Action) bool {
	return a.Applies(caltime.Day(7)) //dimred:allow nowflow fixture exercises suppression
}
`,
		"internal/report/report.go": `package report

import "lintfix/internal/caltime"

func at(t caltime.Day) bool { return t > 0 }

// report is not a restricted package: fixed days are allowed here.
func Fixed() bool { return at(caltime.Day(7)) }
`,
	})
}

// TestNowflowDeferDup: a sink inside a defer is visited in its own
// block and again in the spliced defers block; Run reports it once.
func TestNowflowDeferDup(t *testing.T) {
	diags := linttest.Diagnostics(t, []*lint.Analyzer{lint.NewNowflow(lint.DefaultNowflowRestricted)}, map[string]string{
		"internal/caltime/caltime.go": `package caltime

type Day int32

func Date(y, m, d int) Day { return Day(y*366 + m*31 + d) }
`,
		"internal/spec/s.go": `package spec

import "lintfix/internal/caltime"

func Eval(t caltime.Day) {}

func Bad() {
	defer Eval(caltime.Date(2020, 1, 2))
}
`,
	})
	for _, d := range diags {
		t.Logf("%s", d)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1", len(diags))
	}
}

func TestLockField(t *testing.T) {
	linttest.Run(t, []*lint.Analyzer{lint.NewLockField()}, map[string]string{
		"internal/warehouse/wh.go": `package warehouse

import "sync"

type W struct {
	mu     sync.RWMutex
	loaded bool
	rows   int
	Count  int
}

func (w *W) SetLoaded(v bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.loaded = v
}

func (w *W) Loaded() bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.loaded
}

func (w *W) IncCount() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.Count++
}

func (w *W) BadRead() bool {
	return w.loaded // want "read of field .*W.loaded without holding"
}

func (w *W) BadWrite() {
	w.loaded = true // want "write of field .*W.loaded without holding"
}

func (w *W) BadReadLockForWrite() {
	w.mu.RLock()
	defer w.mu.RUnlock()
	w.loaded = true // want "write of field .*W.loaded without holding"
}

func (w *W) BranchyOK(v bool) {
	w.mu.Lock()
	if v {
		w.loaded = v
	}
	w.mu.Unlock()
}

func (w *W) addRowsLocked(n int) {
	w.rows += n // boundary: the Locked suffix says the caller holds mu
}

func (w *W) AddRows(n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.addRowsLocked(n)
}

func (w *W) BadLockedCall(n int) {
	w.addRowsLocked(n) // want "call to addRowsLocked"
}

func New() *W {
	w := &W{}
	w.loaded = true // fresh allocation: exempt
	return w
}

// Restore is the snapshot-load regression shape: the object comes out
// of a constructor call, so it is not provably fresh here — the
// unlocked write is flagged.
func Restore() *W {
	w := New()
	w.loaded = true // want "write of field .*W.loaded without holding"
	return w
}

func Zeroed() int {
	var w W
	w.rows = 3 // zero-value local: exempt
	return w.rows
}

func (w *W) Suppressed() bool {
	return w.loaded //dimred:allow lockfield fixture exercises suppression
}

// Rebound starts from a fresh allocation but rebinds the local to a
// parameter: no definition table can call w fresh, so both writes
// need the lock.
func Rebound(p *W) {
	w := &W{}
	w.loaded = true // want "write of field .*W.loaded without holding"
	w = p
	w.loaded = false // want "write of field .*W.loaded without holding"
}
`,
		"internal/client/client.go": `package client

import "lintfix/internal/warehouse"

// The guard is inferred module-wide: an unlocked read in another
// package is still a race.
func Peek(w *warehouse.W) int {
	return w.Count // want "read of field .*W.Count without holding"
}
`,
	})
}
