package spec

import (
	"testing"

	"dimred/internal/mdm"
)

func granOf(t *testing.T, env *Env, refs ...string) mdm.Granularity {
	t.Helper()
	g, err := env.Schema.ParseGranularity(refs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRollupReachable(t *testing.T) {
	_, env := paperEnv(t)
	monthDomain := granOf(t, env, "Time.month", "URL.domain")
	quarterDomain := granOf(t, env, "Time.quarter", "URL.domain")
	quarterGrp := granOf(t, env, "Time.quarter", "URL.domain_grp")
	weekURL := granOf(t, env, "Time.week", "URL.url")
	weekDomain := granOf(t, env, "Time.week", "URL.domain")

	cases := []struct {
		name     string
		from, to mdm.Granularity
		want     bool
	}{
		{"reflexive", monthDomain, monthDomain, true},
		{"month rolls to quarter", monthDomain, quarterDomain, true},
		{"both dims roll up", monthDomain, quarterGrp, true},
		{"quarter cannot refine to month", quarterDomain, monthDomain, false},
		{"week and month are parallel", weekDomain, monthDomain, false},
		{"month cannot serve week", monthDomain, weekDomain, false},
		{"bottom-ish week.url rolls to week.domain", weekURL, weekDomain, true},
	}
	for _, c := range cases {
		if got := RollupReachableSchema(env.Schema, c.from, c.to); got != c.want {
			t.Errorf("%s: RollupReachableSchema(%s, %s) = %v, want %v", c.name,
				env.Schema.GranString(c.from), env.Schema.GranString(c.to), got, c.want)
		}
	}
	// Malformed tuples never reach GranLE.
	if RollupReachableSchema(env.Schema, monthDomain[:1], quarterDomain) {
		t.Error("short granularity should not be reachable")
	}
}

func TestEncodeDecodeGranRoundTrip(t *testing.T) {
	_, env := paperEnv(t)
	for _, refs := range [][]string{
		{"Time.month", "URL.domain"},
		{"Time.quarter", "URL.domain_grp"},
		{"Time.week", "URL.url"},
		{"Time.day", "URL.url"},
	} {
		g := granOf(t, env, refs...)
		key := EncodeGran(g)
		back, err := DecodeGran(env, key)
		if err != nil {
			t.Fatalf("DecodeGran(%q): %v", key, err)
		}
		if !env.Schema.GranEq(g, back) {
			t.Errorf("round trip of %s via %q gave %s",
				env.Schema.GranString(g), key, env.Schema.GranString(back))
		}
	}
}

func TestDecodeGranRejectsMalformedKeys(t *testing.T) {
	_, env := paperEnv(t)
	for _, key := range []string{"", "1", "1.2.3", "x.1", "-1.0", "999.0"} {
		if g, err := DecodeGran(env, key); err == nil {
			t.Errorf("DecodeGran(%q) = %v, want error", key, g)
		}
	}
}

func TestEstimateCells(t *testing.T) {
	_, env := paperEnv(t)
	day := granOf(t, env, "Time.day", "URL.url")
	month := granOf(t, env, "Time.month", "URL.domain")
	top := make(mdm.Granularity, env.Schema.NumDims())
	for i, d := range env.Schema.Dims {
		top[i] = d.Top()
	}
	if got := EstimateCells(env, month); got <= 0 {
		t.Fatalf("EstimateCells(month) = %d", got)
	}
	if EstimateCells(env, month) > EstimateCells(env, day) {
		t.Error("coarser granularity should not estimate more cells than finer")
	}
	// The all-top granularity collapses to few cells (top categories have
	// one value each).
	if got := EstimateCells(env, top); got != 1 {
		t.Errorf("EstimateCells(top) = %d, want 1", got)
	}
}
