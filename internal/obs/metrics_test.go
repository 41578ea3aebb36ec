package obs

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestEveryMetricIsSnapshotSubtractedAndPrinted walks the Metrics struct
// by reflection, so a Counter, Gauge or Histogram added to it cannot
// ship half-wired: it must have a same-named MetricsSnapshot field that
// Snapshot() copies, Sub must subtract it if and only if it is a
// counter, and String() must print it. Every metric is set to its own
// non-zero value first, so a copy from the wrong field shows too.
func TestEveryMetricIsSnapshotSubtractedAndPrinted(t *testing.T) {
	m := NewMetrics()
	mv := reflect.ValueOf(m).Elem()
	want := map[string]int64{} // counter and gauge values
	wantHist := map[string]time.Duration{}
	for i := 0; i < mv.NumField(); i++ {
		name := mv.Type().Field(i).Name
		if !mv.Type().Field(i).IsExported() {
			continue // the clock seam
		}
		switch f := mv.Field(i).Addr().Interface().(type) {
		case *Counter:
			want[name] = 7_000_000 + int64(i)
			f.Add(want[name])
		case *Gauge:
			want[name] = 7_000_000 + int64(i)
			f.Set(want[name])
		case *Histogram:
			wantHist[name] = time.Duration(i+1) * time.Second
			f.Observe(wantHist[name])
		}
	}
	if len(want) == 0 || len(wantHist) == 0 {
		t.Fatal("reflection found no metrics; the walk is broken")
	}

	s := m.Snapshot()
	d := s.Sub(s)
	out := s.String()
	sv, dv := reflect.ValueOf(s), reflect.ValueOf(d)
	if got := sv.NumField(); got != len(want)+len(wantHist) {
		t.Errorf("MetricsSnapshot has %d fields, Metrics has %d metrics", got, len(want)+len(wantHist))
	}
	for i := 0; i < mv.NumField(); i++ {
		field := mv.Type().Field(i)
		name := field.Name
		sf := sv.FieldByName(name)
		switch field.Type {
		case reflect.TypeOf(Counter{}), reflect.TypeOf(Gauge{}):
			if !sf.IsValid() || sf.Kind() != reflect.Int64 {
				t.Errorf("%s: no int64 MetricsSnapshot field of that name", name)
				continue
			}
			if sf.Int() != want[name] {
				t.Errorf("%s: Snapshot() = %d, want %d", name, sf.Int(), want[name])
			}
			wantSub := want[name] // a gauge keeps its value
			if field.Type == reflect.TypeOf(Counter{}) {
				wantSub = 0
			}
			if got := dv.FieldByName(name).Int(); got != wantSub {
				t.Errorf("%s: s.Sub(s) = %d, want %d", name, got, wantSub)
			}
			if !strings.Contains(out, strconv.FormatInt(want[name], 10)) {
				t.Errorf("%s: String() does not print its value %d", name, want[name])
			}
		case reflect.TypeOf(Histogram{}):
			if !sf.IsValid() || sf.Type() != reflect.TypeOf(HistogramSnapshot{}) {
				t.Errorf("%s: no HistogramSnapshot MetricsSnapshot field of that name", name)
				continue
			}
			hs := sf.Interface().(HistogramSnapshot)
			if hs.Count != 1 || hs.Sum != wantHist[name] {
				t.Errorf("%s: Snapshot() = %+v, want one observation of %s", name, hs, wantHist[name])
			}
			if got := dv.FieldByName(name).Interface(); got != sf.Interface() {
				t.Errorf("%s: s.Sub(s) = %+v, want the histogram kept", name, got)
			}
			if !strings.Contains(out, hs.String()) {
				t.Errorf("%s: String() does not print %q", name, hs.String())
			}
		}
	}
}
