package relstore

import (
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/workload"
)

func BenchmarkBuildStar(b *testing.B) {
	obj, err := workload.BuildClickMO(workload.ClickConfig{
		Seed: 8, Start: caltime.Date(2000, 1, 1), Days: 90, ClicksPerDay: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildStar(obj.MO); err != nil {
			b.Fatal(err)
		}
	}
}
