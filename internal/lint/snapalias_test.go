package lint_test

import (
	"testing"

	"dimred/internal/lint"
	"dimred/internal/lint/linttest"
)

// TestSnapAlias exercises the interprocedural escape analysis: writes
// through values derived from a //dimred:immutable type must be flagged
// wherever the derivation happened — a getter's return, an argument
// passed down a call chain, a closure capture, a bound method value,
// or a plain field store, even under a held lock — while fresh
// allocations, reference-free value copies, //dimred:shared
// fields and //dimred:allow suppressions stay silent.
func TestSnapAlias(t *testing.T) {
	linttest.Run(t, []*lint.Analyzer{lint.NewSnapAlias()}, map[string]string{
		"snaplib/snaplib.go": `package snaplib

// Snap is the fixture's published snapshot.
//
//dimred:immutable
type Snap struct {
	Rows map[string]int
	List []int
	//dimred:shared the metric object is internally synchronized
	Met *Metrics
	SK  *Sink
}

type Metrics struct{ N map[string]int }

type Sink struct{ Rows map[string]int }

// Wipe mutates its receiver, so binding it to a snapshot-derived
// receiver is as good as the write.
func (k *Sink) Wipe() { clear(k.Rows) }

// Rows escapes the snapshot's row map to the caller.
func Rows(s *Snap) map[string]int { return s.Rows }
`,
		"wh/wh.go": `package wh

import "sync"

type W struct{ mu sync.Mutex }

// snap is published to lock-free readers behind an atomic pointer.
//
//dimred:immutable
type snap struct {
	rows int
	day  int
}

func NewSnap(rows int) *snap {
	s := &snap{rows: rows}
	s.day = 1 // fresh allocation: construction is allowed
	return s
}

func Zeroed() snap {
	var s snap
	s.day = 2 // zero-value local: nothing published yet
	return s
}

func (w *W) Republish(old *snap) *snap {
	w.mu.Lock()
	defer w.mu.Unlock()
	old.day++ // want "write through a value derived from //dimred:immutable type snap"
	return old
}

func Restamp() *snap {
	s := NewSnap(1)
	s.day = 5 // want "write through a value derived from //dimred:immutable type snap"
	return s
}

func ReadSnap(s *snap) int {
	return s.rows // reads are always allowed
}
`,
		"use/use.go": `package use

import "lintfix/snaplib"

func setN(m map[string]int) { m["n"] = 9 }

func BadEscapedMap(s *snaplib.Snap) {
	m := snaplib.Rows(s)
	m["k"] = 1 // want "write through a value derived from //dimred:immutable type Snap"
}

func BadDirectElem(s *snaplib.Snap) {
	s.List[0] = 7 // want "write through a value derived from //dimred:immutable type Snap"
}

func BadViaCalls(s *snaplib.Snap) {
	setN(snaplib.Rows(s)) // want "call to setN mutates a value derived from //dimred:immutable type Snap"
}

func BadClosure(s *snaplib.Snap) func() {
	return func() {
		delete(s.Rows, "x") // want "delete on a value derived from //dimred:immutable type Snap"
	}
}

func BadCalledMethod(s *snaplib.Snap) {
	s.SK.Wipe() // want "call to Wipe mutates a value derived from //dimred:immutable type Snap"
}

func BadMethodValue(s *snaplib.Snap) func() {
	return s.SK.Wipe // want "method value Wipe may write through a value derived from //dimred:immutable type Snap"
}

func OKShared(s *snaplib.Snap) {
	s.Met.N["x"]++ // derivation stops at the reviewed //dimred:shared field
}

func OKFresh() *snaplib.Snap {
	s := &snaplib.Snap{Rows: map[string]int{}}
	s.Rows["x"] = 1 // fresh allocation: nothing published yet
	return s
}

func OKValueCopy(s *snaplib.Snap) []int {
	var out []int
	for _, v := range s.List {
		out = append(out, v) // ints are copied whole, never aliased
	}
	return out
}

func OKSuppressed(s *snaplib.Snap) {
	//dimred:allow snapalias fixture-sanctioned replay-side mutation
	delete(s.Rows, "x")
}
`,
	})
}

// TestSnapAliasUnmarkedModule: with no //dimred:immutable type in the
// module the analyzer must stay silent (and skip the summary pass).
func TestSnapAliasUnmarkedModule(t *testing.T) {
	diags := linttest.Diagnostics(t, []*lint.Analyzer{lint.NewSnapAlias()}, map[string]string{
		"core/core.go": `package core

type S struct{ M map[string]int }

func Mutate(s *S) { s.M["k"] = 1 }
`,
	})
	if len(diags) != 0 {
		t.Fatalf("expected no diagnostics without marked types, got %v", diags)
	}
}
