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
