package workload

import (
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
)

func BenchmarkGenerateClicks(b *testing.B) {
	cfg := ClickConfig{Seed: 1, Start: caltime.Date(2000, 1, 1), Days: 30, ClicksPerDay: 1000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := GenerateClicks(cfg, func(Click) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(30000, "clicks/op")
}

func BenchmarkBuildRetailMO(b *testing.B) {
	cfg := RetailConfig{Seed: 1, Start: caltime.Date(2020, 1, 1), Days: 30, SalesPerDay: 200}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildRetailMO(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRollUpStreamBuilt prices a cold Schema.RollUp pass over a
// bottom cube whose dimension values a stream created one click at a time,
// between the allocations of the facts that carry them, as the repo
// benchmark's stream_ingest set-up does, at its sizes: 60 history and
// 1 500 recent clicks a day over 300 domains of 30 URLs, a fifth of them
// late. The rows are the distinct (day, URL) cells of the set-up month and
// the one before it, in arrival order: what `aggregate [Time.month,
// URL.domain] where Time.month <= NOW - 2 months` leaves at the bottom.
// Each pass rolls them up to [month, domain] after a 16 MiB write evicts
// the caches outside the timer. BenchmarkAncestorAt in internal/mdm walks
// a compactly built dimension in id order, so it cannot see where the
// values' columns live.
func BenchmarkRollUpStreamBuilt(b *testing.B) {
	obj, err := NewClickSchema()
	if err != nil {
		b.Fatal(err)
	}
	type fact struct {
		day  caltime.Day
		refs []mdm.ValueID
		meas []float64
	}
	var facts []fact
	setup := caltime.Date(2000, 1, 1) + 262
	stream := func(cfg ClickConfig) {
		err := GenerateOutOfOrder(OutOfOrderConfig{ClickConfig: cfg, LateFraction: 0.2, MeanLateDays: 15, MaxLateDays: 60},
			func(a ArrivingClick) error {
				if a.Arrival > setup {
					return nil
				}
				refs, meas, err := obj.Row(a.Click)
				facts = append(facts, fact{a.Day, refs, meas})
				return err
			})
		if err != nil {
			b.Fatal(err)
		}
	}
	history := ClickConfig{Seed: 1, Start: caltime.Date(1999, 1, 1), Days: 365, ClicksPerDay: 60, Domains: 300, URLsPerDomain: 30, ZipfS: 1.1}
	recent := history
	recent.Seed, recent.Start, recent.Days, recent.ClicksPerDay = 2, caltime.Date(2000, 1, 1), 263, 1500
	stream(history)
	stream(recent)

	monthOf := func(d caltime.Day) int { y, m, _ := d.Civil(); return y*12 + m }
	seen := make(map[[2]mdm.ValueID]bool)
	var rows []mdm.ValueID
	for _, f := range facts {
		cell := [2]mdm.ValueID{f.refs[0], f.refs[1]}
		if monthOf(f.day) >= monthOf(setup)-1 && !seen[cell] {
			seen[cell] = true
			rows = append(rows, cell[:]...)
		}
	}
	level, err := obj.Schema.ParseGranularity([]string{"Time.month", "URL.domain"})
	if err != nil {
		b.Fatal(err)
	}
	evict := make([]byte, 16<<20)
	dst := make([]mdm.ValueID, 0, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < len(evict); j += 64 {
			evict[j]++
		}
		b.StartTimer()
		for r := 0; r < len(rows); r += 2 {
			if dst, err = obj.Schema.RollUp(dst[:0], rows[r:r+2], level); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rows)/2), "ns/row")
	b.ReportMetric(float64(len(rows)/2), "rows")
}
