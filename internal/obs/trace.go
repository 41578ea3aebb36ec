package obs

import (
	"fmt"
	"strings"
	"time"
)

// CubeTrace records what one subcube contributed to a traced query.
// During parallel evaluation each goroutine writes only its own entry
// (the slice is pre-sized to the cube count), so no locking is needed.
type CubeTrace struct {
	Cube        int    // cube id (0 is the bottom cube)
	Granularity string // the cube's fixed granularity
	Pruned      bool   // skipped entirely by the zone map
	RowsScanned int    // rows visited in the cube
	RowsKept    int    // rows surviving the predicate
	Duration    time.Duration
}

// The stage names a traced query records. Consumers find a stage by its
// name (the repo benchmark reads StageCombine's duration as
// query.combine_us), so the strings are part of the trace's contract.
const (
	StageScan       = "parallel subcube scan"
	StageCombine    = "combine + final aggregate"
	StageViewAnswer = "views.Answer"
)

// Stage is one timed phase of a traced query.
type Stage struct {
	Name     string
	Duration time.Duration
}

// Trace is a per-query execution trace: which subcubes were consulted
// or pruned, rows scanned versus kept, and per-stage wall time. A nil
// *Trace disables tracing at zero cost.
type Trace struct {
	Query       string // the query's source text, when known
	At          string // the evaluation time, rendered by the caller
	Synced      bool   // whether the cube set was synchronized at query time
	View        string // shape key of the materialized view that served the query; empty on the base path
	ViewStored  bool   // the view sits at the query's granularity and was not folded: returned as stored, or filtered under a predicate
	Cubes       []CubeTrace
	Stages      []Stage
	ResultCells int // cells in the final result
	Total       time.Duration
}

// AddStage appends a timed stage.
func (t *Trace) AddStage(name string, d time.Duration) {
	t.Stages = append(t.Stages, Stage{Name: name, Duration: d})
}

// RowsScanned totals the rows visited across all consulted cubes.
func (t *Trace) RowsScanned() int {
	n := 0
	for _, c := range t.Cubes {
		n += c.RowsScanned
	}
	return n
}

// RowsKept totals the rows surviving the predicate across all cubes.
func (t *Trace) RowsKept() int {
	n := 0
	for _, c := range t.Cubes {
		n += c.RowsKept
	}
	return n
}

// CubesPruned counts the cubes skipped by the zone map.
func (t *Trace) CubesPruned() int {
	n := 0
	for _, c := range t.Cubes {
		if c.Pruned {
			n++
		}
	}
	return n
}

// String renders the trace as a per-cube table plus stage timings.
func (t *Trace) String() string {
	var b strings.Builder
	if t.Query != "" {
		fmt.Fprintf(&b, "query: %s\n", t.Query)
	}
	if t.At != "" {
		fmt.Fprintf(&b, "at: %s", t.At)
		if t.Synced {
			b.WriteString(" (synchronized)")
		} else {
			b.WriteString(" (un-synchronized)")
		}
		b.WriteByte('\n')
	}
	path := "view" // every consulted cube was read the same way
	if t.Synced {
		path = "scan"
	}
	for _, c := range t.Cubes {
		fmt.Fprintf(&b, "  K%-3d %-36s", c.Cube, c.Granularity)
		if c.Pruned {
			b.WriteString(" pruned by zone map\n")
			continue
		}
		fmt.Fprintf(&b, " %s rows=%d kept=%d in %s\n", path, c.RowsScanned, c.RowsKept, fmtDur(c.Duration))
	}
	if t.View != "" {
		how := "folded to the target"
		if t.ViewStored {
			how = "served at the target granularity"
		}
		fmt.Fprintf(&b, "  view %s %s\n", t.View, how)
	}
	for _, st := range t.Stages {
		fmt.Fprintf(&b, "  stage %-33s %s\n", st.Name, fmtDur(st.Duration))
	}
	fmt.Fprintf(&b, "  %d/%d cubes pruned, %d rows scanned, %d kept, %d result cells, total %s\n",
		t.CubesPruned(), len(t.Cubes), t.RowsScanned(), t.RowsKept(), t.ResultCells, fmtDur(t.Total))
	return b.String()
}
