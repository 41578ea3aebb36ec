package lint_test

import (
	"testing"

	"dimred/internal/lint"
	"dimred/internal/lint/linttest"
)

func TestWallclock(t *testing.T) {
	linttest.Run(t, []*lint.Analyzer{lint.NewWallclock(lint.DefaultWallclockRestricted)}, map[string]string{
		"internal/core/core.go": `package core

import "time"

func Eval() time.Time {
	return time.Now() // want "call to time.Now in semantic package"
}

func Elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want "call to time.Since"
}

func Ticker() <-chan time.Time {
	return time.Tick(time.Second) // want "call to time.Tick"
}

func SuppressedSameLine() time.Time {
	return time.Now() //dimred:allow wallclock fixture exercises same-line suppression
}

func SuppressedLineAbove() time.Time {
	//dimred:allow wallclock fixture exercises line-above suppression
	return time.Now()
}

func NoReason() time.Time {
	//dimred:allow wallclock
	return time.Now() // want "call to time.Now"
}

func ExplicitParameter(t0 time.Time) time.Time {
	return t0.Add(time.Hour) // methods on an explicit time are fine
}
`,
		"internal/util/util.go": `package util

import "time"

// util is not a restricted package: the ambient clock is allowed.
func Stamp() time.Time { return time.Now() }
`,
	})
}
