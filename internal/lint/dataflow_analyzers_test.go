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

// TestLockFieldRefusesUnmodeledControlFlow: the CFG does not model
// goto, labels or fallthrough, so lockfield reports each function that
// uses one as uncheckable instead of computing locksets over a graph
// that is not its control flow.
func TestLockFieldRefusesUnmodeledControlFlow(t *testing.T) {
	linttest.Run(t, []*lint.Analyzer{lint.NewLockField()}, map[string]string{
		"internal/warehouse/wh.go": `package warehouse

import "sync"

type W struct {
	mu   sync.Mutex
	rows int
}

func (w *W) Add(n int) {
	w.mu.Lock()
	w.rows += n
	w.mu.Unlock()
}

func (w *W) Goto(n int) {
	w.mu.Lock()
	if n < 0 {
		goto out // want "Goto is uncheckable"
	}
	w.rows += n
out:
	w.mu.Unlock()
}

func (w *W) LabeledBreak(m [][]int) {
	w.mu.Lock()
	defer w.mu.Unlock()
outer: // want "LabeledBreak is uncheckable"
	for _, row := range m {
		for _, x := range row {
			if x < 0 {
				break outer
			}
			w.rows += x
		}
	}
}

func (w *W) Fallthrough(x int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch x {
	case 1:
		w.rows++
		fallthrough // want "Fallthrough is uncheckable"
	default:
		w.rows++
	}
}
`,
	})
}
