package optimizer

import (
	"reflect"
	"testing"

	"repro/internal/acmp"
	"repro/internal/simtime"
	"repro/internal/webevent"
)

func sig(app string, typ webevent.Type) webevent.Signature {
	return webevent.Signature{App: app, Type: typ}
}

func TestEstimateDefaultsBeforeObservations(t *testing.T) {
	p := acmp.Exynos5410()
	c := NewCostModel(p)
	w, measured := c.Estimate(sig("cnn", webevent.Click))
	if measured {
		t.Error("estimate should be a default before any observation")
	}
	if w.Cycles <= 0 {
		t.Error("default workload should be non-trivial")
	}
	if len(c.obs[sig("cnn", webevent.Click)]) != 0 {
		t.Error("no observations expected")
	}
}

func TestCostModelRecoversWorkloadFromTwoFrequencies(t *testing.T) {
	p := acmp.Exynos5410()
	c := NewCostModel(p)
	truth := acmp.Workload{Tmem: 20 * simtime.Millisecond, Cycles: 360e6}
	s := sig("cnn", webevent.Click)
	cfg1 := acmp.Config{Core: acmp.BigCore, FreqMHz: 1000}
	cfg2 := acmp.Config{Core: acmp.BigCore, FreqMHz: 1800}
	c.Observe(s, cfg1, p.Latency(truth, cfg1))
	c.Observe(s, cfg2, p.Latency(truth, cfg2))
	w, measured := c.Estimate(s)
	if !measured {
		t.Fatal("estimate should be measurement-based after two observations")
	}
	if relErr(float64(w.Tmem), float64(truth.Tmem)) > 0.1 {
		t.Errorf("Tmem estimate %v vs truth %v", w.Tmem, truth.Tmem)
	}
	if relErr(float64(w.Cycles), float64(truth.Cycles)) > 0.1 {
		t.Errorf("Cycles estimate %v vs truth %v", w.Cycles, truth.Cycles)
	}
	// Predicted latency at a third frequency should be close to the truth.
	cfg3 := acmp.Config{Core: acmp.LittleCore, FreqMHz: 600}
	pred := c.PredictLatency(s, cfg3)
	actual := p.Latency(truth, cfg3)
	if relErr(float64(pred), float64(actual)) > 0.12 {
		t.Errorf("predicted latency %v vs actual %v", pred, actual)
	}
}

func TestCostModelWithoutFrequencyDiversity(t *testing.T) {
	p := acmp.Exynos5410()
	c := NewCostModel(p)
	truth := acmp.Workload{Tmem: 10 * simtime.Millisecond, Cycles: 200e6}
	s := sig("bbc", webevent.Click)
	cfg := acmp.Config{Core: acmp.BigCore, FreqMHz: 1200}
	c.Observe(s, cfg, p.Latency(truth, cfg))
	c.Observe(s, cfg, p.Latency(truth, cfg))
	w, measured := c.Estimate(s)
	if !measured {
		t.Fatal("should be measurement-based")
	}
	// Same-frequency observations cannot separate Tmem and Ndep, but the
	// reconstructed latency at the observed frequency must match.
	if relErr(float64(p.Latency(w, cfg)), float64(p.Latency(truth, cfg))) > 0.05 {
		t.Errorf("reconstructed latency %v vs truth %v", p.Latency(w, cfg), p.Latency(truth, cfg))
	}
}

func TestObservationWindowBounded(t *testing.T) {
	p := acmp.Exynos5410()
	c := NewCostModel(p)
	s := sig("msn", webevent.Scroll)
	cfg := p.MaxPerformance()
	for i := 0; i < 30; i++ {
		c.Observe(s, cfg, 10*simtime.Millisecond)
	}
	if got := len(c.obs[s]); got != maxObservations {
		t.Errorf("observations = %d, want %d", got, maxObservations)
	}
}

func TestPickMinEnergyConfig(t *testing.T) {
	p := acmp.Exynos5410()
	c := NewCostModel(p)
	truth := acmp.Workload{Tmem: 2 * simtime.Millisecond, Cycles: 8e6}
	s := sig("cnn", webevent.Scroll)
	cfg1 := acmp.Config{Core: acmp.BigCore, FreqMHz: 800}
	cfg2 := acmp.Config{Core: acmp.BigCore, FreqMHz: 1800}
	c.Observe(s, cfg1, p.Latency(truth, cfg1))
	c.Observe(s, cfg2, p.Latency(truth, cfg2))

	// Plenty of budget: a light scroll should land on the little cluster.
	pick := c.PickMinEnergyConfig(s, 0, simtime.Time(60*simtime.Millisecond))
	if pick.Core != acmp.LittleCore {
		t.Errorf("light event with budget should use the little core, got %v", pick)
	}
	// Impossible budget: must fall back to maximum performance.
	heavy := sig("cnn", webevent.Load)
	pick = c.PickMinEnergyConfig(heavy, 0, simtime.Time(5*simtime.Millisecond))
	if pick != p.MaxPerformance() {
		t.Errorf("impossible deadline should pick max performance, got %v", pick)
	}
	// The chosen config meets the deadline per the model's own estimate.
	pick = c.PickMinEnergyConfig(s, 0, simtime.Time(100*simtime.Millisecond))
	if c.PredictLatency(s, pick) > 100*simtime.Millisecond {
		t.Error("chosen config should meet the deadline per the model")
	}
}

func TestScheduleCoordinatesAcrossEvents(t *testing.T) {
	p := acmp.Exynos5410()
	c := NewCostModel(p)
	opt := New(p, c)

	// Teach the cost model two signatures with known workloads.
	tapSig := sig("cnn", webevent.Click)
	tapWork := acmp.Workload{Tmem: 15 * simtime.Millisecond, Cycles: 300e6}
	loadSig := sig("cnn", webevent.Load)
	loadWork := acmp.Workload{Tmem: 250 * simtime.Millisecond, Cycles: 2500e6}
	for _, cfg := range []acmp.Config{{Core: acmp.BigCore, FreqMHz: 1000}, {Core: acmp.BigCore, FreqMHz: 1800}} {
		c.Observe(tapSig, cfg, p.Latency(tapWork, cfg))
		c.Observe(loadSig, cfg, p.Latency(loadWork, cfg))
	}

	// A tap due soon followed by a predicted load: the schedule must meet
	// both deadlines and assign some configuration to each.
	tasks := []*Task{
		{Signature: tapSig, Type: webevent.Click, ExpectedTrigger: 0,
			Deadline: simtime.Time(300 * simtime.Millisecond)},
		{Signature: loadSig, Type: webevent.Load, ExpectedTrigger: simtime.Time(500 * simtime.Millisecond),
			Deadline: simtime.Time(3500 * simtime.Millisecond), Predicted: true},
	}
	feasible := opt.Schedule(0, tasks)
	if !feasible {
		t.Error("schedule should be feasible")
	}
	for i, task := range tasks {
		if task.Config.IsZero() {
			t.Fatalf("task %d has no configuration", i)
		}
		if task.EstimatedLatency <= 0 {
			t.Fatalf("task %d has no latency estimate", i)
		}
	}
	if st := opt.Stats(); st.Solves != 1 || st.Nodes <= 0 {
		t.Errorf("solver statistics not recorded: %+v", st)
	}
	if opt.Cost() != c {
		t.Error("Cost() should expose the cost model")
	}
	// An empty schedule is trivially feasible.
	if !opt.Schedule(0, nil) {
		t.Error("empty schedule should be feasible")
	}

	// Re-planning the identical horizon with no cost-model update in
	// between must come from the plan cache — no new solve — and must
	// install the identical assignment.
	want := []acmp.Config{tasks[0].Config, tasks[1].Config}
	for i := range tasks {
		tasks[i].Config = acmp.Config{}
		tasks[i].EstimatedLatency = 0
	}
	if !opt.Schedule(0, tasks) {
		t.Error("cached schedule should be feasible")
	}
	st := opt.Stats()
	if st.Solves != 1 || st.PlanCacheHits != 1 {
		t.Errorf("repeat Schedule should hit the plan cache: %+v", st)
	}
	for i := range tasks {
		if tasks[i].Config != want[i] {
			t.Errorf("task %d: cached config %v, want %v", i, tasks[i].Config, want[i])
		}
		if tasks[i].EstimatedLatency <= 0 {
			t.Errorf("task %d: cached plan lost the latency estimate", i)
		}
	}

	// A cost-model observation invalidates the cache: the same horizon
	// solves again.
	c.Observe(tapSig, p.MaxPerformance(), p.Latency(tapWork, p.MaxPerformance()))
	opt.Schedule(0, tasks)
	if st := opt.Stats(); st.Solves != 2 || st.PlanCacheHits != 1 {
		t.Errorf("cost-model revision should invalidate the plan cache: %+v", st)
	}

	// ResetPlanCache forces the next identical horizon to solve again.
	opt.ResetPlanCache()
	opt.Schedule(0, tasks)
	if st := opt.Stats(); st.Solves != 3 {
		t.Errorf("ResetPlanCache should force a fresh solve: %+v", st)
	}
}

func relErr(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return 1
	}
	d := (a - b) / b
	if d < 0 {
		d = -d
	}
	return d
}

// TestPlanCacheSurvivesSolverReuse pins the copy the plan cache takes of
// each solve: the optimizer's ilp.Solver returns choices aliasing scratch
// that the next solve overwrites. Solving horizon A, then a different
// horizon B, then A again from the cache must install exactly the
// configurations a fresh optimizer plans for A.
func TestPlanCacheSurvivesSolverReuse(t *testing.T) {
	p := acmp.Exynos5410()
	horizon := func(deadlineMS ...int) []*Task {
		var tasks []*Task
		for i, ms := range deadlineMS {
			typ := webevent.Click
			if i%2 == 1 {
				typ = webevent.Scroll
			}
			tasks = append(tasks, &Task{Signature: sig("cnn", typ), Type: typ,
				Deadline: simtime.Time(ms) * simtime.Time(simtime.Millisecond)})
		}
		return tasks
	}
	configs := func(tasks []*Task) []acmp.Config {
		out := make([]acmp.Config, len(tasks))
		for i, t := range tasks {
			out[i] = t.Config
		}
		return out
	}
	a := func() []*Task { return horizon(900, 1400, 2600, 3300) }
	ref := a()
	New(p, NewCostModel(p)).Schedule(0, ref)
	want := configs(ref)

	opt := New(p, NewCostModel(p))
	opt.Schedule(0, a())
	b := horizon(120, 160, 260, 330)
	opt.Schedule(0, b)
	if reflect.DeepEqual(configs(b), want) {
		t.Fatal("horizons A and B plan the same configurations; the test cannot tell a stale cache")
	}
	again := a()
	opt.Schedule(0, again)
	if st := opt.Stats(); st.Solves != 2 || st.PlanCacheHits != 1 {
		t.Fatalf("A should be re-planned from the cache: %+v", st)
	}
	if got := configs(again); !reflect.DeepEqual(got, want) {
		t.Errorf("cached plan for A was overwritten by B's solve:\n got %v\nwant %v", got, want)
	}
}
