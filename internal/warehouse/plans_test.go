package warehouse

import (
	"fmt"
	"sync"
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/query"
	"dimred/internal/subcube"
	"dimred/internal/views"
)

// planAsk is one way a stress reader asks a text: through Query,
// QueryWith under some approaches, or QueryTraced.
type planAsk struct {
	method string
	sel    query.Approach
	agg    query.AggApproach
}

var planAsks = []planAsk{
	{"Query", query.Conservative, query.Availability},
	{"QueryWith", query.Liberal, query.Availability},
	{"QueryTraced", query.Conservative, query.Availability},
	{"QueryWith", query.Conservative, query.Strict},
}

// ask asks src through a's method.
func (a planAsk) ask(w *Warehouse, src string) (*mdm.MO, error) {
	switch a.method {
	case "Query":
		return w.Query(src)
	case "QueryWith":
		return w.QueryWith(src, a.sel, a.agg)
	}
	mo, _, err := w.QueryTraced(src)
	return mo, err
}

// fresh is what a's answer must equal: src parsed anew, with a's
// approaches, asked through QueryAt at the clock.
func (a planAsk) fresh(w *Warehouse, src string, t caltime.Day) (*mdm.MO, error) {
	q, err := subcube.ParseQuery(src, w.Env())
	if err != nil {
		return nil, err
	}
	q.Sel, q.Agg = a.sel, a.agg
	return w.QueryAt(q, t)
}

// TestStressPlanTable races readers that share the plan table against a
// writer. Four readers ask more distinct texts than planLimit, invalid
// ones among them, through Query, QueryWith and QueryTraced, and keep
// asking the view shapes between them, beside a writer that runs
// FlushIngest, InsertActions and DeleteActions. A text that fails to
// parse must give the parser's error every time and never enter the
// table, and the table must never hold more than planLimit plans. Once
// the writer stops, every text asked every way must answer what a fresh
// parse asked through QueryAt at the same clock answers.
func TestStressPlanTable(t *testing.T) {
	obj, env := clickEnv(t)
	mAct, qAct, churn := stressSpec(t, env)
	w, err := Open(env, mAct, qAct)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(caltime.Date(2000, 6, 1)); err != nil {
		t.Fatal(err)
	}
	refs, meas := stressRows(t, obj, 240, caltime.Date(2000, 1, 1))
	f := &lockFixture{w: w, refs: refs, meas: meas}
	for i := 0; i < 30; i++ {
		if err := loadBatch(f, i); err != nil {
			t.Fatal(err)
		}
	}
	hot := viewShapeQueries
	for _, src := range hot {
		if _, err := w.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.EnableViews(views.Config{}); err != nil {
		t.Fatal(err)
	}

	var texts []string
	for k := 0; len(texts) <= planLimit+64; k++ {
		texts = append(texts, fmt.Sprintf("%s where Time.day <= %v", hot[k%len(hot)], caltime.Date(2000, 1, 1)+caltime.Day(k/len(hot))))
	}
	bad := map[string]string{}
	for _, src := range []string{
		`aggregate [Time.fortnight, URL.domain]`,
		`aggregate [Time.month, URL.domain] where`,
		`aggregate [Time.month]`,
		`summarize [Time.month, URL.domain]`,
	} {
		_, err := subcube.ParseQuery(src, env)
		if err == nil {
			t.Fatalf("%q parses", src)
		}
		bad[src] = err.Error()
		texts = append(texts, src)
	}

	const readers = 4
	var (
		wg      sync.WaitGroup
		asked   sync.WaitGroup // the readers' first pass, beside the writer
		stopped = make(chan struct{})
	)
	// check asks one text one way and holds the answer to the rules above,
	// and to a fresh parse once the writer has stopped.
	check := func(src string, a planAsk, settled bool) {
		got, err := a.ask(w, src)
		if want, ok := bad[src]; ok {
			if err == nil || err.Error() != want {
				t.Errorf("%s(%q) = %v, want the parser's error %q", a.method, src, err, want)
			}
			if _, stored := (*w.plans.Load())[src]; stored {
				t.Errorf("%q failed to parse, yet the table holds a plan for it", src)
			}
			return
		}
		if err != nil {
			t.Errorf("%s(%q): %v", a.method, src, err)
			return
		}
		if n := len(*w.plans.Load()); n > planLimit {
			t.Errorf("the plan table holds %d plans, more than planLimit %d", n, planLimit)
		}
		if !settled {
			return
		}
		want, err := a.fresh(w, src, w.Now())
		if err != nil {
			t.Errorf("fresh %q: %v", src, err)
			return
		}
		if got.DumpCells() != want.DumpCells() {
			t.Errorf("%s(%q) answers\n%s\na fresh parse through QueryAt answers\n%s", a.method, src, got.DumpCells(), want.DumpCells())
		}
	}
	asked.Add(readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each text is asked two ways in a row, the second reading the
			// plan the first stored, and the second pass starts another
			// way than the first: a plan one way wrote into would show in
			// another way's answer.
			pass := func(k int, settled bool) {
				for i := r; i < len(texts); i += readers {
					for j := k; j < k+2; j++ {
						check(texts[i], planAsks[(i/readers+r+j)%len(planAsks)], settled)
					}
					check(hot[(i/readers)%len(hot)], planAsks[(i/readers+k)%len(planAsks)], settled)
				}
			}
			pass(0, false)
			asked.Done()
			<-stopped
			pass(1, true)
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		done := make(chan struct{})
		go func() { asked.Wait(); close(done) }()
		defer close(stopped)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			for j := 0; j < 3; j++ {
				if err := ingestRow(f, i*3+j); err != nil {
					t.Error(err)
					return
				}
			}
			if err := w.FlushIngest(); err != nil {
				t.Error(err)
				return
			}
			if err := w.InsertActions(churn); err != nil {
				t.Error(err)
				return
			}
			if err := w.DeleteActions(churn.Name()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
