package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"dimred/internal/caltime"
	"dimred/internal/core"
	"dimred/internal/mdm"
	"dimred/internal/obs"
	"dimred/internal/query"
	"dimred/internal/spec"
	"dimred/internal/subcube"
)

// The correctness checker. Its reference is the paper's semantics run
// without the engine: the full fact history reduced by the interpreted
// Definition 2 (core.ReduceInterpreted), and query answers computed by
// the MO algebra (query.Select / query.Aggregate) over that reduced MO.
// Everything here runs outside the timed phases.

// oracle reduces fact histories under the workload's specification.
// Repetitions of one run replay one script, so reductions and reference
// answers are computed once and kept.
type oracle struct {
	in      *input
	sp      *spec.Spec
	states  map[stateKey]*mdm.MO
	answers map[answerKey]*mdm.MO
}

// stateKey names a reference state: the set-up facts plus the first
// replayed facts, reduced at a day.
type stateKey struct {
	replayed int
	at       caltime.Day
}

type answerKey struct {
	stateKey
	template int
}

func newOracle(in *input) (*oracle, error) {
	sp, err := spec.New(in.env, in.actions...)
	if err != nil {
		return nil, err
	}
	return &oracle{in: in, sp: sp, states: map[stateKey]*mdm.MO{}, answers: map[answerKey]*mdm.MO{}}, nil
}

// state returns the reference state for k, reducing on first use.
func (o *oracle) state(k stateKey) (*mdm.MO, error) {
	if mo, ok := o.states[k]; ok {
		return mo, nil
	}
	mo, err := o.reduced(k.replayed, k.at)
	if err != nil {
		return nil, err
	}
	o.states[k] = mo
	return mo, nil
}

// want returns the reference answer to template ti asked with the
// first replayed facts loaded and the clock at now.
func (o *oracle) want(ti, replayed int, now caltime.Day) (*mdm.MO, error) {
	tpl := o.in.templates[ti]
	k := answerKey{stateKey{replayed, now + caltime.Day(tpl.ahead)}, ti}
	if mo, ok := o.answers[k]; ok {
		return mo, nil
	}
	st, err := o.state(k.stateKey)
	if err != nil {
		return nil, err
	}
	mo, err := answer(st, tpl, k.at)
	if err != nil {
		return nil, err
	}
	o.answers[k] = mo
	return mo, nil
}

// verify checks one repetition: every op it attempted counts, every
// error return counts as failed, and so does every disagreement with
// the reference — the stored cells after the script, the answers of the
// read segment, and the ingest conservation laws.
func (o *oracle) verify(r *repResult, c *checks) {
	in := o.in
	c.attempted += r.ops
	c.failed += r.errs
	if r.errs > 0 && len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf("%d of %d ops returned an error", r.errs, r.ops))
	}
	setupDay, endDay, all := in.sz.setupDay(), in.sz.endDay(), len(in.replay)

	final, err := o.state(stateKey{all, endDay})
	if err != nil {
		c.err("oracle reduce", err)
		return
	}
	c.ok("stored cells after the script", diffCells(r.final, final))
	c.checkConservation(r.end, r.loaded, int64(len(in.setup)+all))

	compare := func(what string, got []*mdm.MO, replayed int, now caltime.Day) {
		for ti, mo := range got {
			if mo == nil {
				continue // template not drawn by this script
			}
			want, err := o.want(ti, replayed, now)
			if err != nil {
				c.err(what+" "+in.templates[ti].name, err)
				continue
			}
			c.ok(what+" "+in.templates[ti].name, diffCells(mo, want))
		}
	}
	compare("answer", r.last, 0, setupDay)
	if in.sz.concurrent {
		// A second reader ran beside the writer: its answers were checked
		// for batch atomicity as they came, and once more, quiescent, here.
		c.ok("batch atomicity of concurrent answers", r.atomicFailure)
		compare("quiescent answer", r.quiescent, all, endDay)
	}
}

// reduced returns the set-up facts plus the first nReplay replayed
// facts, reduced at time t.
func (o *oracle) reduced(nReplay int, t caltime.Day) (*mdm.MO, error) {
	full := mdm.NewMO(o.in.obj.Schema)
	for _, f := range o.in.setup {
		if _, err := full.AddFact(f.refs, f.meas); err != nil {
			return nil, err
		}
	}
	for _, a := range o.in.replay[:nReplay] {
		if _, err := full.AddFact(a.refs, a.meas); err != nil {
			return nil, err
		}
	}
	res, err := core.ReduceInterpreted(o.sp, full, t)
	if err != nil {
		return nil, err
	}
	return res.MO, nil
}

// answer evaluates a template over a reduced MO with the MO algebra.
func answer(reduced *mdm.MO, tpl template, t caltime.Day) (*mdm.MO, error) {
	q := tpl.q
	if q.Pred == nil {
		return query.Aggregate(reduced, q.Target, q.Agg)
	}
	if q.Sel == query.Weighted {
		sel, weights, err := query.SelectWeighted(reduced, q.Pred, t)
		if err != nil {
			return nil, err
		}
		return query.AggregateWeighted(sel, weights, q.Target, q.Agg)
	}
	sel, err := query.Select(reduced, q.Pred, t, q.Sel)
	if err != nil {
		return nil, err
	}
	return query.Aggregate(sel, q.Target, q.Agg)
}

// materialize copies every subcube of a cube set into one MO.
func materialize(cs *subcube.CubeSet, schema *mdm.Schema) (*mdm.MO, error) {
	out := mdm.NewMO(schema)
	for _, c := range cs.Cubes() {
		mo, err := c.MO(schema)
		if err != nil {
			return nil, err
		}
		for f := 0; f < mo.Len(); f++ {
			fid := mdm.FactID(f)
			if _, err := out.AddFactAt(mo.Refs(fid), mo.Measures(fid), mo.BaseCount(fid), ""); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// cellsOf indexes an MO's facts by cell — the fact's dimension values,
// which every MO of a run shares through the one schema — and reports a
// cell held twice as an error (stored cubes, reduced MOs and query
// answers all hold a cell once).
func cellsOf(mo *mdm.MO) (map[string]mdm.FactID, error) {
	out := make(map[string]mdm.FactID, mo.Len())
	var key []byte
	for f := 0; f < mo.Len(); f++ {
		fid := mdm.FactID(f)
		key = key[:0]
		for _, ref := range mo.Refs(fid) {
			key = binary.LittleEndian.AppendUint64(key, uint64(ref))
		}
		if _, dup := out[string(key)]; dup {
			return nil, fmt.Errorf("cell %s held twice", mo.CellString(fid))
		}
		out[string(key)] = fid
	}
	return out, nil
}

// diffCells compares two MOs as DumpCells does — cells, measures and
// base counts, display names ignored — and describes the first
// difference, or returns "" when they agree. Measures compare within a
// relative 1e-9: the weighted and disaggregated approaches scale by
// fractions, and the oracle sums in another order than the engine.
func diffCells(got, want *mdm.MO) string {
	if got.Len() != want.Len() {
		return fmt.Sprintf("%d cells, want %d", got.Len(), want.Len())
	}
	g, err := cellsOf(got)
	if err != nil {
		return "got: " + err.Error()
	}
	var key []byte
	for f := 0; f < want.Len(); f++ {
		wf := mdm.FactID(f)
		key = key[:0]
		for _, ref := range want.Refs(wf) {
			key = binary.LittleEndian.AppendUint64(key, uint64(ref))
		}
		gf, ok := g[string(key)]
		if !ok {
			return fmt.Sprintf("cell %s missing", want.CellString(wf))
		}
		// Taken, so a cell want holds twice cannot match twice.
		delete(g, string(key))
		if got.BaseCount(gf) != want.BaseCount(wf) {
			return fmt.Sprintf("cell %s: base %d, want %d", want.CellString(wf), got.BaseCount(gf), want.BaseCount(wf))
		}
		for j, w := range want.Measures(wf) {
			if v := got.Measure(gf, j); !closeTo(v, w) {
				return fmt.Sprintf("cell %s: measure %d = %v, want %v", want.CellString(wf), j, v, w)
			}
		}
	}
	return ""
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checks tallies correctness checks: every check is an attempted op,
// every error return or mismatch a failed one.
type checks struct {
	attempted int64
	failed    int64
	notes     []string // first few failures, for the report
}

func (c *checks) ok(what string, problem string) {
	c.attempted++
	if problem == "" {
		return
	}
	c.failed++
	if len(c.notes) < 8 {
		c.notes = append(c.notes, what+": "+problem)
	}
}

func (c *checks) err(what string, err error) {
	if err != nil {
		c.ok(what, err.Error())
		return
	}
	c.ok(what, "")
}

// repeats checks a later repetition against the run's first, which the
// oracle vouches for: its own error returns and conservation laws, and
// then every output — the stored cells after the script and each
// template's answer — must equal the first repetition's, because both
// ran one script from one state.
func (c *checks) repeats(in *input, first, r *repResult) {
	c.attempted += r.ops
	c.failed += r.errs
	if r.errs > 0 && len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf("%d of %d ops returned an error", r.errs, r.ops))
	}
	c.checkConservation(r.end, r.loaded, int64(len(in.setup)+len(in.replay)))
	c.ok("stored cells, against the first repetition", diffCells(r.final, first.final))
	same := func(what string, got, want []*mdm.MO) {
		for ti, mo := range got {
			switch {
			case mo == nil && want[ti] == nil: // template not drawn by this script
			case mo == nil || want[ti] == nil:
				c.ok(what+" "+in.templates[ti].name, "answered in one repetition and not in another")
			default:
				c.ok(what+" "+in.templates[ti].name+", against the first repetition", diffCells(mo, want[ti]))
			}
		}
	}
	same("answer", r.last, first.last)
	if in.sz.concurrent {
		c.ok("batch atomicity of concurrent answers", r.atomicFailure)
		same("quiescent answer", r.quiescent, first.quiescent)
	}
}

// checkConservation pins the ingest conservation laws after a script:
// every queued fact was compacted, none is pending, and the warehouse
// counts exactly the facts the harness sent.
func (c *checks) checkConservation(m obs.MetricsSnapshot, loaded, sent int64) {
	problem := ""
	switch {
	case m.IngestQueued != m.IngestCompacted:
		problem = fmt.Sprintf("queued %d != compacted %d", m.IngestQueued, m.IngestCompacted)
	case m.IngestPending != 0:
		problem = fmt.Sprintf("%d facts still pending", m.IngestPending)
	case loaded != sent:
		problem = fmt.Sprintf("warehouse loaded %d facts, harness sent %d", loaded, sent)
	}
	c.ok("ingest conservation", problem)
}

// checkAtomic pins batch atomicity on a predicate-free availability answer taken
// while a writer runs: its grand Number_of must be the set-up count
// plus a whole number of group commits (no purge action is specified,
// so folds only regroup).
func checkAtomic(mo *mdm.MO, setupFacts, replayFacts int) string {
	var total float64
	for f := 0; f < mo.Len(); f++ {
		total += mo.Measure(mdm.FactID(f), 0)
	}
	extra := int(math.Round(total)) - setupFacts
	if extra < 0 || extra > replayFacts {
		return fmt.Sprintf("total %v outside [%d, %d]", total, setupFacts, setupFacts+replayFacts)
	}
	if extra%flushEvery != 0 && extra != replayFacts {
		return fmt.Sprintf("total %v is not set-up + whole commits", total)
	}
	return ""
}
