package subcube

import (
	"testing"

	"dimred/internal/caltime"
	"dimred/internal/spec"
	"dimred/internal/workload"
)

func benchCubeSet(b *testing.B) (*workload.ClickObject, *spec.Spec, *CubeSet) {
	b.Helper()
	obj, err := workload.BuildClickMO(workload.ClickConfig{
		Seed: 11, Start: caltime.Date(2000, 1, 1), Days: 240,
		ClicksPerDay: 60, Domains: 12, URLsPerDomain: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	env, err := spec.NewEnv(obj.Schema, "Time", obj.Time)
	if err != nil {
		b.Fatal(err)
	}
	s, err := spec.New(env,
		spec.MustCompileString("m", `aggregate [Time.month, URL.domain] where Time.month <= NOW - 2 months`, env),
		spec.MustCompileString("q", `aggregate [Time.quarter, URL.domain_grp] where Time.quarter <= NOW - 2 quarters`, env))
	if err != nil {
		b.Fatal(err)
	}
	cs, err := New(s)
	if err != nil {
		b.Fatal(err)
	}
	if err := cs.InsertMO(obj.MO); err != nil {
		b.Fatal(err)
	}
	return obj, s, cs
}

// BenchmarkQuerySyncVsUnsync is the Section 7.3 ablation: evaluating
// against synchronized cubes versus rolling each cube's rows up to their
// current level on the fly in the un-synchronized state.
func BenchmarkQuerySyncVsUnsync(b *testing.B) {
	_, s, cs := benchCubeSet(b)
	syncAt := caltime.Date(2000, 9, 1)
	if _, err := cs.Sync(syncAt); err != nil {
		b.Fatal(err)
	}
	q := MustParseQuery(`aggregate [Time.month, URL.domain_grp]`, s.Env())
	b.Run("synchronized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cs.Evaluate(q, syncAt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unsynchronized", func(b *testing.B) {
		stale := caltime.Date(2000, 9, 20) // 19 days after the sync
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cs.Evaluate(q, stale); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkIncrementalSyncSteps(b *testing.B) {
	// Cost of monthly synchronization steps over a year of aging.
	obj, _, _ := benchCubeSet(b)
	_ = obj
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, _, cs := benchCubeSet(b)
		b.StartTimer()
		for m := 3; m <= 14; m++ {
			if _, err := cs.Sync(caltime.Date(2000, m, 2)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
