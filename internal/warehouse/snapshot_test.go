package warehouse

import (
	"bytes"
	"encoding/gob"
	"io"
	"strings"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/spec"
	"dimred/internal/views"
	"dimred/internal/workload"
)

func TestSnapshotRoundTrip(t *testing.T) {
	// Build, load and age a warehouse.
	obj, err := workload.NewClickSchema()
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Open(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env),
		spec.MustCompileString("q", `aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 4 quarters`, env),
		spec.MustCompileString("purge", `delete where Time.year <= NOW - 5 years`, env))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(caltime.Date(2000, 1, 1)); err != nil {
		t.Fatal(err)
	}
	cfg := workload.ClickConfig{Seed: 17, Start: caltime.Date(2000, 1, 1), Days: 200, ClicksPerDay: 12}
	err = w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
		return workload.GenerateClicks(cfg, func(c workload.Click) error {
			refs, meas, err := obj.Row(c)
			if err != nil {
				return err
			}
			return load(refs, meas)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(caltime.Date(2001, 3, 10)); err != nil {
		t.Fatal(err)
	}

	// Save and load.
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	w2, ld, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ld.Time == nil || len(ld.ByName) != 2 {
		t.Fatal("LoadedDims incomplete")
	}

	// Identical state: clock, stats, query answers.
	if w2.Now() != w.Now() {
		t.Errorf("clock %v vs %v", w2.Now(), w.Now())
	}
	s1, s2 := w.Stats(), w2.Stats()
	if s1.Rows != s2.Rows || s1.FactBytes != s2.FactBytes || s1.LoadedFacts != s2.LoadedFacts {
		t.Errorf("stats differ:\n%v\nvs\n%v", s1, s2)
	}
	for _, q := range []string{
		`aggregate [Time.TOP, URL.TOP]`,
		`aggregate [Time.month, URL.domain_grp]`,
		`aggregate [Time.quarter, URL.domain] where URL.domain_grp = ".com"`,
	} {
		r1, err := w.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := w2.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Dump() != r2.Dump() {
			t.Errorf("query %q differs after round trip:\n%s\nvs\n%s", q, r1.Dump(), r2.Dump())
		}
	}

	// The loaded warehouse keeps living: new facts, more aging.
	err = w2.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
		d := ld.Time.EnsureDay(caltime.Date(2001, 3, 9))
		u, ok := ld.ByName["URL"]
		if !ok {
			t.Fatal("URL dimension missing")
		}
		// Re-use an existing url value (the dimension was restored).
		urlCat, _ := u.CategoryByName("url")
		v := u.ValuesIn(urlCat)[0]
		return load([]mdm.ValueID{d, v}, []float64{1, 42, 1, 7})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.AdvanceTo(caltime.Date(2002, 1, 5)); err != nil {
		t.Fatal(err)
	}
	res, err := w2.Query(`aggregate [Time.TOP, URL.TOP]`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Measure(0, 0) != float64(200*12+1) {
		t.Errorf("post-restore count = %v", res.Measure(0, 0))
	}
}

// TestSnapshotRoundTripKeepsViewState pins the bugfix for view state
// dropped by Save/Load: enablement, budget, and the learned shape trace
// persist, and the loaded warehouse rebuilds its materialized views so
// the recorded battery is view-served immediately — no silent fallback
// to the base path after a restore.
func TestSnapshotRoundTripKeepsViewState(t *testing.T) {
	w, _ := openViewWarehouse(t)
	n1, bytes1 := w.ViewStats()
	if n1 == 0 {
		t.Fatal("no views before save")
	}
	answers := make([]string, len(viewShapeQueries))
	for i, src := range viewShapeQueries {
		mo, err := w.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		answers[i] = mo.DumpCells()
	}

	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	w2, _, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	n2, bytes2 := w2.ViewStats()
	if n2 != n1 || bytes2 != bytes1 {
		t.Fatalf("views after load: %d views/%d bytes, want %d/%d", n2, bytes2, n1, bytes1)
	}
	m := w2.Metrics()
	if m.ViewBuilds == 0 {
		t.Fatal("loaded warehouse never rebuilt its views")
	}
	before := w2.Metrics()
	for i, src := range viewShapeQueries {
		mo, err := w2.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if mo.DumpCells() != answers[i] {
			t.Errorf("query %q differs after restore:\n%s\nvs\n%s", src, mo.DumpCells(), answers[i])
		}
	}
	d := w2.Metrics().Sub(before)
	if d.ViewHits != int64(len(viewShapeQueries)) {
		t.Fatalf("restored battery view-served %d/%d (misses %d)", d.ViewHits, len(viewShapeQueries), d.ViewMisses)
	}
	if d.Queries != 0 {
		t.Fatalf("restored battery ran %d base evaluations", d.Queries)
	}
}

// TestSnapshotRoundTripViewsDisabled pins the complementary default: a
// warehouse saved with views off loads with views off.
func TestSnapshotRoundTripViewsDisabled(t *testing.T) {
	w, _ := openClickWarehouse(t)
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	w2, _, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n, b := w2.ViewStats(); n != 0 || b != 0 {
		t.Fatalf("views materialized on a views-off snapshot: %d/%d", n, b)
	}
	if got := w2.Metrics().ViewBuilds; got != 0 {
		t.Fatalf("ViewBuilds = %d on a views-off snapshot", got)
	}
}

func TestSnapshotLoadErrors(t *testing.T) {
	if _, _, err := Load(strings.NewReader("not a snapshot")); err == nil {
		t.Error("garbage accepted")
	}
	if _, _, err := Load(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}

	// A well-formed gob whose contents are corrupt must be refused with
	// an error, never by panicking the loader.
	w, obj := openClickWarehouse(t)
	if err := w.AdvanceTo(caltime.Date(2000, 1, 1)); err != nil {
		t.Fatal(err)
	}
	loadStream(t, w, obj, workload.ClickConfig{Seed: 17, Start: caltime.Date(2000, 1, 1), Days: 3, ClicksPerDay: 4})
	var good bytes.Buffer
	if err := w.Save(&good); err != nil {
		t.Fatal(err)
	}
	for name, tamper := range map[string]func(sf *snapshotFile){
		"negative ancestor category": func(sf *snapshotFile) {
			c := &sf.Dimensions[0].Categories[0]
			c.Anc = append(c.Anc, -1)
		},
		"negative row ref":           func(sf *snapshotFile) { sf.Rows[0].Refs[0] = -1 },
		"row ref past the dimension": func(sf *snapshotFile) { sf.Rows[0].Refs[1] = 1 << 30 },
		"unknown time dimension":     func(sf *snapshotFile) { sf.TimeDimName = "NoSuchDim" },
		"unknown aggregate":          func(sf *snapshotFile) { sf.Measures[0].Agg = 42 },
	} {
		t.Run(name, func(t *testing.T) {
			var sf snapshotFile
			if err := gob.NewDecoder(bytes.NewReader(good.Bytes())).Decode(&sf); err != nil {
				t.Fatal(err)
			}
			tamper(&sf)
			var bad bytes.Buffer
			if err := gob.NewEncoder(&bad).Encode(sf); err != nil {
				t.Fatal(err)
			}
			_, _, err := Load(&bad)
			if err == nil || !strings.HasPrefix(err.Error(), "warehouse: Load: ") {
				t.Errorf("Load = %v, want a warehouse: Load: error", err)
			}
		})
	}
}

func TestSnapshotOfPaperWarehouse(t *testing.T) {
	// The running example through a save/load cycle keeps Figure 3's
	// third snapshot intact.
	w, obj := openClickWarehouse(t)
	_ = obj
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	w2, _, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(w2.Spec().Actions()); got != 2 {
		t.Errorf("actions after load = %d", got)
	}
	if u, ok := w2.Cubes().LastSync(); ok != false {
		_ = u // never synced in openClickWarehouse; both should agree
		if l1, ok1 := w.Cubes().LastSync(); !ok1 || l1 != u {
			t.Error("sync state drift")
		}
	}
}

// FuzzSnapshotLoad: a snapshot file is outside input, so whatever the
// bytes, Load either refuses them with an error or returns a warehouse
// that survives a year of clock, a query and a Save — errors allowed,
// panics not. The seeds are saved click warehouses with views off and on.
func FuzzSnapshotLoad(f *testing.F) {
	for _, viewsOn := range []bool{false, true} {
		w, obj := openClickWarehouse(f)
		if err := w.AdvanceTo(caltime.Date(2000, 1, 1)); err != nil {
			f.Fatal(err)
		}
		loadStream(f, w, obj, workload.ClickConfig{Seed: 17, Start: caltime.Date(2000, 1, 1), Days: 3, ClicksPerDay: 4})
		if viewsOn {
			for _, src := range viewShapeQueries {
				if _, err := w.Query(src); err != nil {
					f.Fatal(err)
				}
			}
			if err := w.EnableViews(views.Config{}); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := w.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, _, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = w.AdvanceTo(w.Now() + 400)
		_, _ = w.Query(`aggregate [Time.quarter, URL.domain]`)
		_ = w.Save(io.Discard)
	})
}
