package sched

import (
	"reflect"
	"testing"

	"repro/internal/acmp"
	"repro/internal/simtime"
	"repro/internal/webevent"
)

func oracleTrace(n int) []*webevent.Event {
	evs := make([]*webevent.Event, n)
	for i := range evs {
		evs[i] = &webevent.Event{
			Seq: i, App: "cnn", Type: webevent.Click,
			Trigger: simtime.Time(i+1) * simtime.Time(300*simtime.Millisecond),
			Work:    acmp.Workload{Tmem: 12 * simtime.Millisecond, Cycles: int64(200e6 + 40e6*float64(i))},
		}
	}
	return evs
}

func TestParseOracleVersion(t *testing.T) {
	cases := []struct {
		in   string
		want OracleVersion
		ok   bool
	}{
		{"", DefaultOracleVersion, true},
		{"v1", OracleV1, true},
		{"1", OracleV1, true},
		{"V1", OracleV1, true},
		{" v2 ", OracleV2, true},
		{"2", OracleV2, true},
		{"v3", 0, false},
		{"fast", 0, false},
	}
	for _, c := range cases {
		got, err := ParseOracleVersion(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseOracleVersion(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseOracleVersion(%q) should fail", c.in)
		}
	}
	if OracleV1.String() != "v1" || OracleV2.String() != "v2" || OracleVersion(7).String() != "v7" {
		t.Error("String spellings wrong")
	}
	if OracleVersion(0).OrDefault() != DefaultOracleVersion || OracleV1.OrDefault() != OracleV1 {
		t.Error("OrDefault wrong")
	}
	if !OracleV1.Valid() || !OracleV2.Valid() || OracleVersion(3).Valid() {
		t.Error("Valid wrong")
	}
}

func TestNewOracleDefaultsToV2(t *testing.T) {
	o := NewOracle(acmp.Exynos5410(), oracleTrace(3))
	if o.version != OracleV2 || DefaultOracleVersion != OracleV2 {
		t.Fatalf("default oracle version = %v", o.version)
	}
	if z := NewOracleWithVersion(acmp.Exynos5410(), oracleTrace(3), 0); z.version != DefaultOracleVersion {
		t.Fatalf("zero version should resolve to default, got %v", z.version)
	}
}

// TestOraclePlanCacheHit is the counter assertion for the plan-cache fix:
// planning the identical horizon twice must answer the second call from the
// cache (one solve, one hit) with an identical task list, for both versions.
func TestOraclePlanCacheHit(t *testing.T) {
	for _, v := range []OracleVersion{OracleV1, OracleV2} {
		o := NewOracleWithVersion(acmp.Exynos5410(), oracleTrace(6), v)
		start := simtime.Time(100 * simtime.Millisecond)

		first := o.Plan(start, nil)
		if len(first) == 0 {
			t.Fatalf("%v: empty plan", v)
		}
		// Plan reuses its output buffer; snapshot before the second call.
		snap := make([]SpecTask, len(first))
		copy(snap, first)
		s1 := o.SolverStats()
		if s1.Solves != 1 || s1.PlanCacheHits != 0 {
			t.Fatalf("%v: after first plan stats = %+v", v, s1)
		}

		second := o.Plan(start, nil)
		s2 := o.SolverStats()
		if s2.PlanCacheHits != 1 {
			t.Errorf("%v: repeated identical horizon missed the plan cache: %+v", v, s2)
		}
		if s2.Solves != 1 || s2.Nodes != s1.Nodes {
			t.Errorf("%v: cached plan re-ran the solver: %+v vs %+v", v, s2, s1)
		}
		if len(second) != len(snap) {
			t.Fatalf("%v: cached plan length %d != %d", v, len(second), len(snap))
		}
		for i := range snap {
			if second[i] != snap[i] {
				t.Errorf("%v: cached task %d differs: %+v vs %+v", v, i, second[i], snap[i])
			}
		}

		// A different start time is a different horizon: must solve again.
		o.Plan(start.Add(simtime.Millisecond), nil)
		if s3 := o.SolverStats(); s3.Solves != 2 || s3.PlanCacheHits != 1 {
			t.Errorf("%v: shifted horizon should re-solve: %+v", v, s3)
		}
	}
}

// TestOracleV2MatchesV1OnProvenWindows checks that where v1's reference
// solver completes within budget (no aborts), v2 plans the same energy; the
// task lists agree config-for-config on this tie-free workload.
func TestOracleV2MatchesV1OnProvenWindows(t *testing.T) {
	p := acmp.Exynos5410()
	evs := oracleTrace(6)
	o1 := NewOracleWithVersion(p, evs, OracleV1)
	o2 := NewOracleWithVersion(p, evs, OracleV2)
	start := simtime.Time(50 * simtime.Millisecond)
	t1 := o1.Plan(start, nil)
	t2 := o2.Plan(start, nil)
	if o1.SolverStats().BudgetAborts != 0 {
		t.Skip("v1 aborted; windows not comparable")
	}
	if len(t1) != len(t2) {
		t.Fatalf("plan lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i].Config != t2[i].Config {
			t.Errorf("task %d config differs: %v vs %v", i, t1[i].Config, t2[i].Config)
		}
	}
	if o2.SolverStats().BudgetAborts != 0 {
		t.Errorf("v2 aborted on a 6-event window: %+v", o2.SolverStats())
	}
}

// TestOraclePlanSteadyStateAllocs pins the zero-alloc property of repeated
// oracle planning (the v2 throughput path): after warmup, planning the same
// session's horizons must not allocate.
func TestOraclePlanSteadyStateAllocs(t *testing.T) {
	o := NewOracleWithVersion(acmp.Exynos5410(), oracleTrace(8), OracleV2)
	starts := []simtime.Time{
		simtime.Time(10 * simtime.Millisecond),
		simtime.Time(20 * simtime.Millisecond),
		simtime.Time(30 * simtime.Millisecond),
	}
	for _, s := range starts { // warmup: solve + fill the plan cache
		o.Plan(s, nil)
	}
	avg := testing.AllocsPerRun(50, func() {
		for _, s := range starts {
			o.Plan(s, nil)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Plan allocates %.1f times per cycle", avg)
	}
}

// TestOraclePlanCacheSurvivesSolverReuse pins the copy the plan cache takes
// of each v2 solve: ilp.Solver returns choices aliasing scratch that the
// next solve overwrites. Planning window A, then a different window B, then
// A again from the cache must return exactly the configurations a fresh
// oracle plans for A.
func TestOraclePlanCacheSurvivesSolverReuse(t *testing.T) {
	p := acmp.Exynos5410()
	evs := oracleTrace(6)
	startA := simtime.Time(0)
	startB := simtime.Time(250 * simtime.Millisecond)
	configs := func(tasks []SpecTask) []acmp.Config {
		out := make([]acmp.Config, len(tasks))
		for i, task := range tasks {
			out[i] = task.Config
		}
		return out
	}
	want := configs(NewOracleWithVersion(p, evs, OracleV2).Plan(startA, nil))

	o := NewOracleWithVersion(p, evs, OracleV2)
	o.Plan(startA, nil)
	if b := configs(o.Plan(startB, nil)); reflect.DeepEqual(b, want) {
		t.Fatal("windows A and B plan the same configurations; the test cannot tell a stale cache")
	}
	got := configs(o.Plan(startA, nil))
	if st := o.SolverStats(); st.Solves != 2 || st.PlanCacheHits != 1 {
		t.Fatalf("A should be re-planned from the cache: %+v", st)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cached plan for A was overwritten by B's solve:\n got %v\nwant %v", got, want)
	}
}
