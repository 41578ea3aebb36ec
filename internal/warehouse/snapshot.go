package warehouse

import (
	"encoding/gob"
	"fmt"
	"io"

	"dimred/internal/caltime"
	"dimred/internal/dims"
	"dimred/internal/mdm"
	"dimred/internal/spec"
	"dimred/internal/subcube"
	"dimred/internal/views"
)

// snapshot DTOs: plain exported structs gob-encoded to disk. The format
// is versioned; Load rejects unknown versions but accepts every prior
// one (gob leaves absent fields at their zero values, which for the v2
// view-state additions means views-off and an empty shape trace —
// exactly what a v1 snapshot recorded).
//
// Version history:
//
//	1: dimensions, specification, rows, clock state.
//	2: + view state (ViewsOn, view budget, query-shape trace).
const snapshotVersion = 2

type snapValue struct {
	Cat     int32
	Name    string
	Ord     int64
	Parents map[int32]int32 // category -> value id, TOP parents omitted
}

type snapCategory struct {
	Name    string
	Ordered bool
	Anc     []int32 // immediate ancestor category ids (TOP omitted)
}

type snapDimension struct {
	Name       string
	Categories []snapCategory // excluding the auto-added TOP
	Values     []snapValue    // in value-id order, excluding the TOP value
}

type snapMeasure struct {
	Name string
	Agg  int32
}

type snapAction struct {
	Name string
	Src  string
}

type snapRow struct {
	Refs []int32
	Meas []float64
	Base int64
}

type snapshotFile struct {
	Version     int
	FactType    string
	TimeDimName string
	Dimensions  []snapDimension
	Measures    []snapMeasure
	Actions     []snapAction
	Rows        []snapRow // across all cubes; routed by granularity on load
	Loaded      int64
	Deleted     int64
	Now         int64
	LastSync    int64
	Synced      bool

	// Since version 2: materialized-view state. The views themselves are
	// derived data and are rebuilt on load from the restored rows; what
	// must survive the round-trip is the enablement, the budget, and the
	// observed query-shape trace the greedy selector feeds on.
	ViewsOn      bool
	ViewMaxBytes int64
	ViewMaxViews int
	Shapes       map[string]int64
}

// Save serializes the warehouse — dimensions, specification, subcube
// rows and clock state — so Load can reconstruct it byte-for-byte
// equivalent (same value ids, same rows, same specification).
func (w *Warehouse) Save(out io.Writer) error {
	// View configuration is writer state, copied under wmu before
	// pinning — pin-then-lock would deadlock against a publishing writer
	// draining this reader's pin. The shape trace is lock-free.
	w.wmu.Lock()
	viewsOn, vcfg := w.viewsOn, w.vcfg
	w.wmu.Unlock()

	s := w.pin()
	defer w.unpin(s)

	sf := snapshotFile{
		Version:      snapshotVersion,
		FactType:     w.env.Schema.FactType,
		Loaded:       w.met.FactsLoaded.Load(),
		Deleted:      s.cubes.DeletedFacts(),
		Now:          int64(s.now),
		ViewsOn:      viewsOn,
		ViewMaxBytes: vcfg.MaxBytes,
		ViewMaxViews: vcfg.MaxViews,
		Shapes:       w.shapes.Counts(),
	}
	if w.env.TimeDim >= 0 {
		sf.TimeDimName = w.env.Schema.Dims[w.env.TimeDim].Name()
	}
	if last, ok := s.cubes.LastSync(); ok {
		sf.LastSync, sf.Synced = int64(last), true
	}
	for _, d := range w.env.Schema.Dims {
		sf.Dimensions = append(sf.Dimensions, snapDimensionOf(d))
	}
	for _, m := range w.env.Schema.Measures {
		sf.Measures = append(sf.Measures, snapMeasure{Name: m.Name, Agg: int32(m.Agg)})
	}
	for _, a := range s.cubes.Spec().Actions() {
		sf.Actions = append(sf.Actions, snapAction{Name: a.Name(), Src: a.Source().String()})
	}
	for _, c := range s.cubes.Cubes() {
		mo, err := c.MO(w.env.Schema)
		if err != nil {
			return err
		}
		for f := 0; f < mo.Len(); f++ {
			fid := mdm.FactID(f)
			refs := mo.Refs(fid)
			r := snapRow{Refs: make([]int32, len(refs)), Meas: mo.Measures(fid), Base: mo.BaseCount(fid)}
			for i, v := range refs {
				r.Refs[i] = int32(v)
			}
			sf.Rows = append(sf.Rows, r)
		}
	}
	return gob.NewEncoder(out).Encode(sf)
}

func snapDimensionOf(d *mdm.Dimension) snapDimension {
	sd := snapDimension{Name: d.Name()}
	top := d.Top()
	for c := 0; c < d.NumCategories(); c++ {
		cid := mdm.CategoryID(c)
		if cid == top {
			continue
		}
		cat := d.Category(cid)
		sc := snapCategory{Name: cat.Name, Ordered: cat.Ordered}
		for _, a := range d.Anc(cid) {
			if a != top {
				sc.Anc = append(sc.Anc, int32(a))
			}
		}
		sd.Categories = append(sd.Categories, sc)
	}
	topValue := d.TopValueID()
	for v := 0; v < d.NumValues(); v++ {
		vid := mdm.ValueID(v)
		if vid == topValue {
			continue
		}
		sv := snapValue{
			Cat:     int32(d.CategoryOf(vid)),
			Name:    d.ValueName(vid),
			Ord:     d.ValueOrd(vid),
			Parents: map[int32]int32{},
		}
		for pc, pv := range d.ParentsOf(vid) {
			if pc == top {
				continue
			}
			sv.Parents[int32(pc)] = int32(pv)
		}
		sd.Values = append(sd.Values, sv)
	}
	return sd
}

// LoadedDims gives callers access to the reconstructed dimensions of a
// loaded warehouse, so they can keep inserting facts (EnsureDay,
// EnsureURL, ...).
type LoadedDims struct {
	Time   *dims.TimeDim // nil when the schema has no time dimension
	ByName map[string]*mdm.Dimension
}

// Load reconstructs a warehouse from a snapshot written by Save.
func Load(in io.Reader) (*Warehouse, *LoadedDims, error) {
	var sf snapshotFile
	if err := gob.NewDecoder(in).Decode(&sf); err != nil {
		return nil, nil, fmt.Errorf("warehouse: Load: %w", err)
	}
	if sf.Version < 1 || sf.Version > snapshotVersion {
		return nil, nil, fmt.Errorf("warehouse: Load: unsupported snapshot version %d", sf.Version)
	}

	loaded := &LoadedDims{ByName: make(map[string]*mdm.Dimension)}
	var dimensions []*mdm.Dimension
	for _, sd := range sf.Dimensions {
		d, err := restoreDimension(sd)
		if err != nil {
			return nil, nil, err
		}
		dimensions = append(dimensions, d)
		loaded.ByName[sd.Name] = d
	}
	measures := make([]mdm.Measure, len(sf.Measures))
	for j, m := range sf.Measures {
		measures[j] = mdm.Measure{Name: m.Name, Agg: mdm.AggKind(m.Agg)}
	}
	schema, err := mdm.NewSchema(sf.FactType, dimensions, measures)
	if err != nil {
		return nil, nil, fmt.Errorf("warehouse: Load: %w", err)
	}
	var tm spec.TimeModel
	if sf.TimeDimName != "" {
		d, ok := loaded.ByName[sf.TimeDimName]
		if !ok {
			return nil, nil, fmt.Errorf("warehouse: Load: time dimension %q is not among the snapshot's dimensions", sf.TimeDimName)
		}
		td, err := dims.TimeDimFrom(d)
		if err != nil {
			return nil, nil, fmt.Errorf("warehouse: Load: %w", err)
		}
		loaded.Time = td
		tm = td
	}
	env, err := spec.NewEnv(schema, sf.TimeDimName, tm)
	if err != nil {
		return nil, nil, fmt.Errorf("warehouse: Load: %w", err)
	}
	actions := make([]*spec.Action, len(sf.Actions))
	for i, sa := range sf.Actions {
		actions[i], err = spec.CompileString(sa.Name, sa.Src, env)
		if err != nil {
			return nil, nil, fmt.Errorf("warehouse: Load: %w", err)
		}
	}
	w, err := Open(env, actions...)
	if err != nil {
		return nil, nil, fmt.Errorf("warehouse: Load: %w", err)
	}
	// Restore rows and clock through the left-right commit so both
	// cube-set sides converge and the published snapshot carries the
	// restored clock. View state restores with it: the shape trace seeds
	// the selector, and a views-on snapshot rebuilds its views from the
	// restored rows inside the same commit, so the first published
	// snapshot already serves them.
	w.wmu.Lock()
	w.now, w.synced = caltime.Day(sf.Now), sf.Synced
	for k, n := range sf.Shapes {
		w.shapes.Add(k, n)
	}
	w.viewsOn = sf.ViewsOn
	if sf.ViewsOn {
		w.vcfg = views.Config{MaxBytes: sf.ViewMaxBytes, MaxViews: sf.ViewMaxViews}
	}
	err = w.commitWithViewsLocked(func(cs *subcube.CubeSet) (int, error) {
		var refs []mdm.ValueID
		for _, r := range sf.Rows {
			refs = refs[:0]
			for _, v := range r.Refs {
				refs = append(refs, mdm.ValueID(v))
			}
			// RestoreRow checks arity and id range before it looks a
			// value up.
			if err := cs.RestoreRow(refs, r.Meas, r.Base); err != nil {
				return 0, fmt.Errorf("warehouse: Load: %w", err)
			}
		}
		cs.RestoreSyncState(caltime.Day(sf.LastSync), sf.Synced, sf.Deleted)
		return len(sf.Rows), nil
	}, sf.ViewsOn)
	w.wmu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	// Seed the cumulative metrics from the snapshot's bookkeeping: Stats
	// reads its loaded-facts count from FactsLoaded.
	w.met.FactsLoaded.Add(sf.Loaded)
	w.met.FactsDeleted.Add(sf.Deleted)
	return w, loaded, nil
}

func restoreDimension(sd snapDimension) (*mdm.Dimension, error) {
	d := mdm.NewDimension(sd.Name)
	ids := make([]mdm.CategoryID, len(sd.Categories))
	for i, sc := range sd.Categories {
		id, err := d.AddCategory(sc.Name, sc.Ordered)
		if err != nil {
			return nil, fmt.Errorf("warehouse: Load: %w", err)
		}
		if int(id) != i {
			return nil, fmt.Errorf("warehouse: Load: category id drift in dimension %s", sd.Name)
		}
		ids[i] = id
	}
	for i, sc := range sd.Categories {
		for _, a := range sc.Anc {
			if a < 0 || int(a) >= len(ids) {
				return nil, fmt.Errorf("warehouse: Load: bad ancestor category in dimension %s", sd.Name)
			}
			if err := d.Contains(ids[i], ids[a]); err != nil {
				return nil, fmt.Errorf("warehouse: Load: %w", err)
			}
		}
	}
	if err := d.Finalize(); err != nil {
		return nil, fmt.Errorf("warehouse: Load: %w", err)
	}
	// The TOP value was created by Finalize with the same id (0) it had
	// originally; remaining values restore in id order.
	for _, sv := range sd.Values {
		parents := make(map[mdm.CategoryID]mdm.ValueID, len(sv.Parents))
		for pc, pv := range sv.Parents {
			parents[mdm.CategoryID(pc)] = mdm.ValueID(pv)
		}
		if _, err := d.AddValue(mdm.CategoryID(sv.Cat), sv.Name, sv.Ord, parents); err != nil {
			return nil, fmt.Errorf("warehouse: Load: %w", err)
		}
	}
	return d, nil
}
