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

func TestAtomicField(t *testing.T) {
	linttest.Run(t, []*lint.Analyzer{lint.NewAtomicField()}, map[string]string{
		"a/a.go": `package a

import "sync/atomic"

type Stats struct {
	N int64
	W atomic.Int64
}

func (s *Stats) Inc()            { atomic.AddInt64(&s.N, 1) }
func (s *Stats) Load() int64     { return atomic.LoadInt64(&s.N) }
func (s *Stats) WrappedOK() int64 { return s.W.Load() }
func (s *Stats) BadPlain() int64 { return s.N } // want "non-atomic access to field lintfix/a.Stats.N"
func (s *Stats) BadStore(v int64) { s.N = v } // want "non-atomic access to field lintfix/a.Stats.N"
func (s *Stats) BadCopy() atomic.Int64 { return s.W } // want "atomic type but is used as a plain value"
func (s *Stats) Suppressed() int64 {
	return s.N //dimred:allow atomicfield fixture exercises suppression
}

type Hist struct {
	buckets [4]atomic.Int64
}

func (h *Hist) Observe(i int) { h.buckets[i].Add(1) } // index + method call is fine
func (h *Hist) Len() int      { return len(h.buckets) }
`,
		"b/b.go": `package b

import "lintfix/a"

// The module-wide view: package b never touches sync/atomic itself,
// but a's field is atomic, so a plain read here is a race.
func Read(s *a.Stats) int64  { return s.N } // want "non-atomic access to field lintfix/a.Stats.N"
func ReadOK(s *a.Stats) int64 { return s.Load() }
`,
	})
}

func TestInvariantCall(t *testing.T) {
	linttest.Run(t, []*lint.Analyzer{lint.NewInvariantCall(lint.DefaultInvariantConfig)}, map[string]string{
		"internal/spec/spec.go": `package spec

type Action struct{ Name string }

type Spec struct {
	actions []*Action
	gen     uint64
}

func CheckNonCrossing(as []*Action) error { return nil }
func CheckGrowing(as []*Action) error     { return nil }

func (s *Spec) bumpGeneration() { s.gen++ }

// Insert is the honest operator: both obligations are discharged
// before the action set changes, and the commit bumps the generation.
func (s *Spec) Insert(a *Action) error {
	cand := append(s.actions, a)
	if err := CheckNonCrossing(cand); err != nil {
		return err
	}
	if err := CheckGrowing(cand); err != nil {
		return err
	}
	s.actions = cand
	s.bumpGeneration()
	return nil
}

// Wrapped mutates only through Insert, so the checkers and the bump
// are reached transitively.
func (s *Spec) Wrapped(a *Action) error { return s.Insert(a) }

func (s *Spec) Hack(a *Action) { // want "exported Hack mutates the Spec.actions action set without invoking CheckNonCrossing and CheckGrowing" "without bumping the spec generation"
	s.actions = append(s.actions, a)
}

func (s *Spec) HalfChecked(a *Action) error { // want "without invoking CheckGrowing" "without bumping the spec generation"
	cand := append(s.actions, a)
	if err := CheckNonCrossing(cand); err != nil {
		return err
	}
	s.actions = cand
	return nil
}

// Forgetful discharges both proof obligations but commits without
// bumping the generation — the stale-cache hazard the GenBump rule
// exists for.
func (s *Spec) Forgetful(a *Action) error { // want "exported Forgetful mutates the Spec.actions action set without bumping the spec generation \\(call bumpGeneration\\)"
	cand := append(s.actions, a)
	if err := CheckNonCrossing(cand); err != nil {
		return err
	}
	if err := CheckGrowing(cand); err != nil {
		return err
	}
	s.actions = cand
	return nil
}

func (s *Spec) setRaw(as []*Action) { s.actions = as }

func (s *Spec) Sneaky(as []*Action) { // want "exported Sneaky mutates the Spec.actions action set" "without bumping the spec generation"
	s.setRaw(as)
}

//dimred:allow invariantcall fixture exercises suppression
func (s *Spec) Restore(as []*Action) { s.setRaw(as) }
`,
	})
}

func TestErrwrap(t *testing.T) {
	linttest.Run(t, []*lint.Analyzer{lint.NewErrwrap()}, map[string]string{
		"internal/e/e.go": `package e

import (
	"errors"
	"fmt"
	"os"
)

var errBase = errors.New("base")

func Wrap() error {
	return fmt.Errorf("ctx: %v", errBase) // want "fmt.Errorf formats an error argument without %w"
}

func WrapOK() error {
	return fmt.Errorf("ctx: %w", errBase)
}

func NotAnError(n int) error {
	return fmt.Errorf("n=%v", n) // no error argument: nothing to wrap
}

func Drop() {
	os.Remove("nope") // want "error result discarded"
}

func DropExplicit() {
	_ = os.Remove("nope")
}

func PrintFamilyExempt() {
	fmt.Println("hello")
	fmt.Fprintf(os.Stderr, "oops\n")
}

func Suppressed() {
	os.Remove("nope") //dimred:allow errwrap fixture exercises suppression
}
`,
		// Outside internal/ and cmd/, only the %w rule applies.
		"pub/pub.go": `package pub

import (
	"fmt"
	"os"
)

func Drop() {
	os.Remove("nope") // discard check is scoped to internal/ and cmd/
}

func Wrap(err error) error {
	return fmt.Errorf("ctx: %v", err) // want "without %w"
}
`,
	})
}
