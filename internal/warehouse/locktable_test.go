package warehouse

import (
	"io"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dimred/internal/caltime"
	"dimred/internal/ingest"
	"dimred/internal/mdm"
	"dimred/internal/query"
	"dimred/internal/spec"
	"dimred/internal/subcube"
	"dimred/internal/views"
	"dimred/internal/workload"
)

// The two tables below are the gate of the warehouse's lock discipline.
// Every exported *Warehouse method sits in exactly one of them
// (TestLockTablesCoverEveryMethod): a method that takes wmu is a writer,
// parks while wmu is held and runs beside every other writer under -race
// (TestWritersSerialize); any other method is a reader and returns while
// wmu is held (TestReadsHoldNoWriterLock).

// lockFixture is what a table step calls its method on: a warehouse,
// rows resolved before any goroutine starts (growing a dimension is not
// synchronized with a live warehouse), two actions to delete and insert
// and a prepared query.
type lockFixture struct {
	w    *Warehouse
	refs [][]mdm.ValueID
	meas [][]float64
	// churn is absent from the specification at the start, resident is
	// in it.
	churn, resident *spec.Action
	q               subcube.Query
	// loaded counts the facts the steps handed to Load, LoadBatch and
	// Ingest, for the conservation check after the race.
	loaded atomic.Int64
}

// row returns the i-th resolved row, cycling through the pool.
func (f *lockFixture) row(i int) ([]mdm.ValueID, []float64) {
	return f.refs[i%len(f.refs)], f.meas[i%len(f.meas)]
}

// lockStep is one call of an exported method; i numbers the rounds of
// the entry it belongs to.
type lockStep struct {
	method string
	call   func(f *lockFixture, i int) error
}

// writerCalls holds every exported method that takes wmu. Each entry
// runs its steps in order, round after round, on its own goroutine. An
// entry has two steps only when they must alternate (an action is
// deleted after it is inserted, or re-inserted after it is deleted), and
// each such pair has a second entry that calls them the other way round,
// so that every writer method is some entry's first step. The two ingest
// entries race each other for the compactor slot, so either may find it
// taken.
var writerCalls = [][]lockStep{
	{{"AdvanceTo", func(f *lockFixture, _ int) error { return f.w.AdvanceTo(f.w.Now() + 1) }}},
	{{"Sync", func(f *lockFixture, _ int) error { return f.w.Sync() }}},
	{{"EnableViews", func(f *lockFixture, _ int) error { return f.w.EnableViews(views.Config{}) }}},
	{{"DisableViews", func(f *lockFixture, _ int) error { f.w.DisableViews(); return nil }}},
	{{"RefreshViews", func(f *lockFixture, _ int) error { return f.w.RefreshViews() }}},
	{{"SetInterpreted", func(f *lockFixture, i int) error { f.w.SetInterpreted(i%2 == 0); return nil }}},
	{{"Load", func(f *lockFixture, i int) error {
		if err := f.w.Load(f.row(i)); err != nil {
			return err
		}
		f.loaded.Add(1)
		return nil
	}}},
	{{"LoadBatch", loadBatch}},
	{
		{"InsertActions", func(f *lockFixture, _ int) error { return f.w.InsertActions(f.churn) }},
		{"DeleteActions", func(f *lockFixture, _ int) error { return f.w.DeleteActions(f.churn.Name()) }},
	},
	{
		{"DeleteActions", func(f *lockFixture, _ int) error { return f.w.DeleteActions(f.resident.Name()) }},
		{"InsertActions", func(f *lockFixture, _ int) error { return f.w.InsertActions(f.resident) }},
	},
	{{"StartIngest", startIngest}, {"StopIngest", stopIngest}},
	{{"StopIngest", stopIngest}, {"StartIngest", startIngest}},
	{{"FlushIngest", func(f *lockFixture, _ int) error { return f.w.FlushIngest() }}},
	{{"Save", func(f *lockFixture, _ int) error { return f.w.Save(io.Discard) }}},
}

// loadBatch hands four rows to LoadBatch.
func loadBatch(f *lockFixture, i int) error {
	const n = 4
	err := f.w.LoadBatch(func(load func([]mdm.ValueID, []float64) error) error {
		for j := 0; j < n; j++ {
			if err := load(f.row(i*n + j)); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		f.loaded.Add(n)
	}
	return err
}

// startIngest starts a compactor unless the other ingest entry's is
// running.
func startIngest(f *lockFixture, _ int) error {
	if err := f.w.StartIngest(ingest.Config{MinBatch: 2}); err != nil && !strings.Contains(err.Error(), "already running") {
		return err
	}
	return nil
}

func stopIngest(f *lockFixture, _ int) error { return f.w.StopIngest() }

func ingestRow(f *lockFixture, i int) error {
	if err := f.w.Ingest(f.row(i)); err != nil {
		return err
	}
	f.loaded.Add(1)
	return nil
}

// readerCalls holds every exported method that takes no writer lock.
// A step that gets an answer writes into it, as a caller that owns its
// answer may.
var readerCalls = []lockStep{
	{"Env", func(f *lockFixture, _ int) error { _ = f.w.Env(); return nil }},
	{"Spec", func(f *lockFixture, _ int) error { _ = f.w.Spec(); return nil }},
	{"Cubes", func(f *lockFixture, _ int) error { _ = f.w.Cubes(); return nil }},
	{"Now", func(f *lockFixture, _ int) error { _ = f.w.Now(); return nil }},
	{"Query", func(f *lockFixture, _ int) error { // view-served
		return own(f.w.Query(viewShapeQueries[0]))
	}},
	{"QueryWith", func(f *lockFixture, _ int) error {
		return own(f.w.QueryWith(viewShapeQueries[1], query.Liberal, query.Strict))
	}},
	{"QueryAt", func(f *lockFixture, _ int) error { // un-synchronized
		return own(f.w.QueryAt(f.q, f.w.Now()+40))
	}},
	{"QueryTraced", func(f *lockFixture, _ int) error { // base path
		mo, _, err := f.w.QueryTraced(`aggregate [Time.month, URL.domain] where Time.month <= 2000/2`)
		return own(mo, err)
	}},
	{"QueryAtTraced", func(f *lockFixture, _ int) error {
		mo, _, err := f.w.QueryAtTraced(f.q, f.w.Now())
		return own(mo, err)
	}},
	{"Explain", func(f *lockFixture, _ int) error {
		_, err := f.w.Explain(f.refs[0])
		return err
	}},
	{"Materialize", func(f *lockFixture, _ int) error { return own(f.w.Materialize()) }},
	{"Stats", func(f *lockFixture, _ int) error { _ = f.w.Stats(); return nil }},
	{"Metrics", func(f *lockFixture, _ int) error { _ = f.w.Metrics(); return nil }},
	{"ViewStats", func(f *lockFixture, _ int) error { _, _ = f.w.ViewStats(); return nil }},
	{"Ingest", ingestRow},
	{"IngestPending", func(f *lockFixture, _ int) error { _ = f.w.IngestPending(); return nil }},
}

// own writes into a query answer's first fact. An exact view hit is a
// borrow of the published view, so the write must copy before it lands.
func own(mo *mdm.MO, err error) error {
	if err == nil && mo.Len() > 0 {
		mo.SetMeasure(0, 0, mo.Measure(0, 0)+1)
		mo.AddBaseCount(0, 1)
	}
	return err
}

// TestLockTablesCoverEveryMethod: a new exported method cannot skip the
// lock gate. It joins writerCalls when it takes wmu, readerCalls when it
// does not, and never both.
func TestLockTablesCoverEveryMethod(t *testing.T) {
	writers := map[string]bool{}
	for _, entry := range writerCalls {
		for _, s := range entry {
			writers[s.method] = true
		}
	}
	seen := map[string]int{}
	for m := range writers {
		seen[m]++
	}
	for _, s := range readerCalls {
		seen[s.method]++
	}
	typ := reflect.TypeOf((*Warehouse)(nil))
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		if seen[name] != 1 {
			t.Errorf("(*Warehouse).%s is in %d lock-table places, want 1: writerCalls if it takes wmu, readerCalls otherwise", name, seen[name])
		}
		delete(seen, name)
	}
	for name := range seen {
		t.Errorf("a lock table names %s, which is not an exported *Warehouse method", name)
	}
}

// newWriterFixture opens the warehouse the writer table runs on: a
// churn action absent from the specification and a resident one in it,
// 120 resolved rows, a loaded and synchronized batch, the view shapes
// recorded and one fact buffered.
func newWriterFixture(t *testing.T) *lockFixture {
	t.Helper()
	obj, err := workload.NewClickSchema()
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		t.Fatal(err)
	}
	mAct, qAct, churn := stressSpec(t, env)
	// resident's cutoff, like churn's, is one no row reaches, so
	// Definition 4 always permits its delete.
	resident := spec.MustCompileString("z", `aggregate [Time.year, URL.TOP] where Time.year <= NOW - 3 years`, env)
	w, err := Open(env, mAct, qAct, resident)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(caltime.Date(2000, 6, 1)); err != nil {
		t.Fatal(err)
	}
	refs, meas := stressRows(t, obj, 120, caltime.Date(2000, 1, 1))
	f := &lockFixture{w: w, refs: refs, meas: meas, churn: churn, resident: resident,
		q: subcube.MustParseQuery(`aggregate [Time.quarter, URL.domain]`, env)}
	if err := loadBatch(f, 0); err != nil { // something to fold and to view
		t.Fatal(err)
	}
	for _, src := range viewShapeQueries { // shapes for the view selector
		if _, err := w.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	// A buffered fact, so that FlushIngest's first call has a batch to
	// fold and takes wmu.
	if err := ingestRow(f, 0); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWritersSerialize pins every method that takes wmu, in two phases.
// First, with wmu held, each writer entry's first step must park: a step
// that returns took no writer lock. Then the lock is released and all
// entries run their rounds together on their own goroutines, beside
// each other and beside Ingest producers, so under -race a writer that
// touches writer state outside wmu meets a conflicting access from
// another. Last, the serialized writers must have lost no fact: every
// fact handed to Load, LoadBatch or Ingest is in the warehouse.
func TestWritersSerialize(t *testing.T) {
	f := newWriterFixture(t)
	w := f.w

	const (
		rounds    = 12
		producers = 2
	)
	var wg sync.WaitGroup
	parked := make([]atomic.Bool, len(writerCalls))
	release := make(chan struct{}) // no entry runs past its first step before it closes
	w.wmu.Lock()
	for k, entry := range writerCalls {
		parked[k].Store(true)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for j, s := range entry {
					err := s.call(f, i)
					if i == 0 && j == 0 {
						parked[k].Store(false)
						<-release
					}
					if err != nil {
						t.Errorf("%s: %v", s.method, err)
						return
					}
				}
			}
		}()
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 4*rounds; i++ {
				if err := ingestRow(f, p*4*rounds+i); err != nil {
					t.Errorf("Ingest: %v", err)
					return
				}
			}
		}()
	}
	// Parking is an absence, so it is judged after a grace period: a step
	// that takes no lock returns well within it.
	time.Sleep(500 * time.Millisecond)
	for k, entry := range writerCalls {
		if !parked[k].Load() {
			t.Errorf("%s returned while wmu was held: it takes no writer lock", entry[0].method)
		}
	}
	close(release)
	w.wmu.Unlock()
	wg.Wait()

	if err := w.StopIngest(); err != nil {
		t.Fatal(err)
	}
	if err := w.FlushIngest(); err != nil {
		t.Fatal(err)
	}
	res, err := w.Query(`aggregate [Time.TOP, URL.TOP]`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := grandTotals(res)[0], float64(f.loaded.Load()); res.Len() != 1 || got != want {
		t.Errorf("grand count = %v after the race, want the %v facts handed in", got, want)
	}
	if m := w.Metrics(); m.IngestRejected != 0 || m.IngestPending != 0 {
		t.Errorf("ingest ledger: rejected %d, pending %d, want 0 and 0", m.IngestRejected, m.IngestPending)
	}
}

// TestReadsHoldNoWriterLock pins the read path's defining property
// deterministically: with the writer lock held — a commit of any length
// in flight — every reader returns, because none of them takes wmu. A
// lock creeping into one of them parks its goroutine until the deadline,
// and the failure names it.
func TestReadsHoldNoWriterLock(t *testing.T) {
	w, obj := openViewWarehouse(t)
	refs, meas := stressRows(t, obj, 1, caltime.Date(2000, 1, 1))
	f := &lockFixture{w: w, refs: refs, meas: meas,
		q: subcube.MustParseQuery(`aggregate [Time.quarter, URL.domain]`, w.Env())}

	w.wmu.Lock()
	defer w.wmu.Unlock()
	done := make([]chan struct{}, len(readerCalls))
	var wg sync.WaitGroup
	for i, s := range readerCalls {
		done[i] = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done[i])
			if err := s.call(f, 0); err != nil {
				t.Errorf("%s: %v", s.method, err)
			}
		}()
	}
	all := make(chan struct{})
	go func() { wg.Wait(); close(all) }()
	select {
	case <-all:
	case <-time.After(30 * time.Second):
		var blocked []string
		for i, d := range done {
			select {
			case <-d:
			default:
				blocked = append(blocked, readerCalls[i].method)
			}
		}
		t.Fatalf("blocked behind the writer lock: %v", blocked)
	}
}
