// Package optimizer implements the energy/QoS optimizer of PES: the latency
// cost model based on the classical DVFS law T = Tmem + Ndep/f (Eqn. 1), the
// power look-up table exposed by the ACMP platform, and the construction of
// the constrained-optimization problem (Eqn. 5) whose solution is the
// speculative schedule. The same cost model also powers the reactive EBS
// baseline's per-event configuration choice.
package optimizer

import (
	"strconv"

	"repro/internal/acmp"
	"repro/internal/render"
	"repro/internal/simtime"
	"repro/internal/webevent"
)

// maxObservations bounds the per-signature history kept by the cost model.
const maxObservations = 8

// obsPoint is one latency observation: the effective frequency (MHz divided
// by the core's CPI factor) and the observed execution latency.
type obsPoint struct {
	effFreq float64
	latency float64 // µs
}

// CostModel estimates event workloads (Tmem, Ndep) from observed execution
// latencies, exactly as the paper does: once an event signature has been
// observed under two different (effective) frequencies, the two-unknown
// system of Eqn. 1 is solved; with more observations a least-squares fit is
// used; before that, conservative per-interaction defaults apply.
type CostModel struct {
	platform *acmp.Platform
	obs      map[webevent.Signature][]obsPoint
	defaults map[webevent.Interaction]acmp.Workload

	// rev counts Observe calls. Every observation can shift the workload
	// estimate of its signature and therefore the latency/energy choices of
	// any problem mentioning it; the optimizer's plan cache is valid only
	// while the revision it was filled under is current.
	rev int

	// est memoizes the workload estimate per signature at the current
	// revision. Solving one plan evaluates every signature against every
	// platform configuration; without the memo each of those evaluations
	// redoes the least-squares fit.
	est map[webevent.Signature]estEntry
}

// estEntry is one memoized workload estimate.
type estEntry struct {
	rev      int
	w        acmp.Workload
	measured bool
}

// NewCostModel creates a cost model for the platform.
func NewCostModel(p *acmp.Platform) *CostModel {
	return &CostModel{
		platform: p,
		obs:      make(map[webevent.Signature][]obsPoint),
		est:      make(map[webevent.Signature]estEntry),
		defaults: map[webevent.Interaction]acmp.Workload{
			// Conservative (heavier-than-typical) priors so that unknown
			// events are provisioned generously rather than missing QoS.
			webevent.LoadInteraction: {Tmem: 380 * simtime.Millisecond, Cycles: 4400e6},
			webevent.TapInteraction:  {Tmem: 26 * simtime.Millisecond, Cycles: 520e6},
			webevent.MoveInteraction: {Tmem: 3 * simtime.Millisecond, Cycles: 18e6},
		},
	}
}

// effFreq returns the CPI-adjusted frequency of a configuration, so that
// latency = Tmem + Cycles/effFreq holds across core types.
func (c *CostModel) effFreq(cfg acmp.Config) float64 {
	return float64(cfg.FreqMHz) / c.platform.Cluster(cfg.Core).CPI
}

// Observe records a completed execution of an event with the given signature
// on cfg.
func (c *CostModel) Observe(sig webevent.Signature, cfg acmp.Config, execLatency simtime.Duration) {
	pts := append(c.obs[sig], obsPoint{effFreq: c.effFreq(cfg), latency: float64(execLatency)})
	if len(pts) > maxObservations {
		pts = pts[len(pts)-maxObservations:]
	}
	c.obs[sig] = pts
	c.rev++
}

// Estimate returns the estimated workload for the signature and whether the
// estimate comes from measurements (true) or from the per-interaction
// default (false). Estimates are memoized per cost-model revision: the
// underlying fit only changes when Observe records a new sample.
func (c *CostModel) Estimate(sig webevent.Signature) (acmp.Workload, bool) {
	if e, ok := c.est[sig]; ok && e.rev == c.rev {
		return e.w, e.measured
	}
	w, measured := c.estimate(sig)
	c.est[sig] = estEntry{rev: c.rev, w: w, measured: measured}
	return w, measured
}

// estimate computes the estimate afresh (the uncached path of Estimate).
func (c *CostModel) estimate(sig webevent.Signature) (acmp.Workload, bool) {
	pts := c.obs[sig]
	if len(pts) == 0 {
		return c.defaults[sig.Type.Interaction()], false
	}
	// Check whether we have frequency diversity; without it Tmem and Ndep
	// cannot be separated and a fixed memory share is assumed.
	distinct := false
	for _, p := range pts[1:] {
		if p.effFreq != pts[0].effFreq {
			distinct = true
			break
		}
	}
	if !distinct || len(pts) < 2 {
		// Assume the interaction-typical memory share of the latency.
		share := 0.15
		if sig.Type.Interaction() == webevent.LoadInteraction {
			share = 0.20
		}
		mean := 0.0
		meanF := 0.0
		for _, p := range pts {
			mean += p.latency
			meanF += p.effFreq
		}
		mean /= float64(len(pts))
		meanF /= float64(len(pts))
		return acmp.Workload{
			Tmem:   simtime.Duration(mean * share),
			Cycles: int64(mean * (1 - share) * meanF),
		}, true
	}
	// Least-squares fit of latency = Tmem + Cycles * (1/effFreq).
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		x := 1 / p.effFreq
		sx += x
		sy += p.latency
		sxx += x * x
		sxy += x * p.latency
	}
	n := float64(len(pts))
	den := n*sxx - sx*sx
	if den == 0 {
		return c.defaults[sig.Type.Interaction()], false
	}
	cycles := (n*sxy - sx*sy) / den
	tmem := (sy - cycles*sx) / n
	if cycles < 0 {
		cycles = 0
	}
	if tmem < 0 {
		tmem = 0
	}
	return acmp.Workload{Tmem: simtime.Duration(tmem), Cycles: int64(cycles)}, true
}

// PredictLatency estimates the execution latency of an event with the given
// signature on cfg.
func (c *CostModel) PredictLatency(sig webevent.Signature, cfg acmp.Config) simtime.Duration {
	w, _ := c.Estimate(sig)
	return c.platform.Latency(w, cfg)
}

// PickMinEnergyConfig is MinEnergyConfig over the cost model's latency
// estimates for the signature: the per-event decision rule of the reactive
// EBS scheduler, and of PES while speculation is disabled.
func (c *CostModel) PickMinEnergyConfig(sig webevent.Signature, start simtime.Time, deadline simtime.Time) acmp.Config {
	return MinEnergyConfig(c.platform, start, deadline, func(cfg acmp.Config) simtime.Duration {
		return c.PredictLatency(sig, cfg)
	})
}

// MinEnergyConfig returns the minimum-energy configuration whose latency
// meets the deadline when execution starts at start; when no configuration
// can meet the deadline (a Type I event or a very late start) the
// maximum-performance configuration is returned. The deadline is tightened
// by the display-submission margin so that frames also reach the screen in
// time. latency is the event's latency under a configuration: a cost-model
// estimate for EBS and PES, the exact workload for the Oracle.
func MinEnergyConfig(p *acmp.Platform, start, deadline simtime.Time, latency func(acmp.Config) simtime.Duration) acmp.Config {
	budget := deadline.Sub(start) - render.DisplayMargin
	best := acmp.Config{}
	bestEnergy := 0.0
	for _, cfg := range p.Configs() {
		lat := latency(cfg)
		if lat > budget {
			continue
		}
		e := acmp.EnergyMJ(p.Power(cfg), lat)
		if best.IsZero() || e < bestEnergy {
			best, bestEnergy = cfg, e
		}
	}
	if best.IsZero() {
		return p.MaxPerformance()
	}
	return best
}

// Task is one entry of a speculative schedule: either an outstanding actual
// event or a predicted future event, with the configuration the optimizer
// assigned to it.
type Task struct {
	// Event is the outstanding actual event, or nil for a predicted event.
	Event *webevent.Event
	// Type is the event type (for predicted events).
	Type webevent.Type
	// Signature keys the cost model.
	Signature webevent.Signature
	// ExpectedTrigger is when the event is (expected to be) triggered.
	ExpectedTrigger simtime.Time
	// Deadline is the absolute QoS deadline used in the optimization.
	Deadline simtime.Time
	// Config is the assigned ACMP configuration (filled by Schedule).
	Config acmp.Config
	// EstimatedLatency is the cost model's latency estimate under Config.
	EstimatedLatency simtime.Duration
	// Predicted marks speculative (not yet triggered) tasks.
	Predicted bool
}

// SolverStats aggregates the constrained-optimization work of one scheduler
// instance (and, summed, of whole sessions, batches, and campaigns): how
// many solves ran, how much search they did, how many solves the plan cache
// absorbed, and the wall-clock time spent inside the solver. The counters
// other than WallNS are fully deterministic for a deterministic simulation.
type SolverStats struct {
	// Solves counts searches run (one per plan-cache miss; cache hits
	// excluded), whichever search the scheduler solves with.
	Solves int `json:"solves"`
	// Nodes sums the branch-and-bound candidates explored across solves.
	Nodes int64 `json:"nodes"`
	// PlanCacheHits counts plans answered from the plan cache without
	// solving.
	PlanCacheHits int `json:"plan_cache_hits"`
	// BudgetAborts counts solves that exhausted the branch-and-bound node
	// budget, returning a traversal artifact instead of a proven optimum.
	// Zero on the PES path and on Oracle v2's fast-path windows; Oracle v1's
	// hardest windows abort by design (that is what pins its figures).
	BudgetAborts int `json:"budget_aborts"`
	// WallNS is the wall-clock time spent inside the search, in
	// nanoseconds. It is a host measurement: the one non-deterministic
	// field.
	WallNS int64 `json:"wall_ns"`
}

// Add returns the element-wise sum of two stat records.
func (s SolverStats) Add(o SolverStats) SolverStats {
	return SolverStats{
		Solves:        s.Solves + o.Solves,
		Nodes:         s.Nodes + o.Nodes,
		PlanCacheHits: s.PlanCacheHits + o.PlanCacheHits,
		BudgetAborts:  s.BudgetAborts + o.BudgetAborts,
		WallNS:        s.WallNS + o.WallNS,
	}
}

// Optimizer assembles and solves the constrained optimization problem over
// outstanding plus predicted events, with the cost model's latency
// estimates. It is incremental: solved plans are memoized in its Planner's
// cache keyed by a fingerprint of the problem — the start time and every
// task's (signature, deadline) — and invalidated when the cost model's
// revision moves, so re-planning over an unchanged horizon (e.g. after a
// correct prediction confirmed the standing plan) reuses the standing
// assignment instead of re-solving.
type Optimizer struct {
	platform *acmp.Platform
	cost     *CostModel
	planner  *Planner

	// planRev is the cost-model revision the plan cache was filled under;
	// keyBuf is the reusable plan-key scratch.
	planRev int
	keyBuf  []byte
}

// New creates an optimizer using the given cost model. It solves with its
// own reusable ilp.Solver.
func New(p *acmp.Platform, cost *CostModel) *Optimizer {
	return &Optimizer{platform: p, cost: cost, planner: NewPlanner(p, nil)}
}

// Cost exposes the cost model (shared with the EBS fallback path).
func (o *Optimizer) Cost() *CostModel { return o.cost }

// Stats returns the accumulated solver statistics.
func (o *Optimizer) Stats() SolverStats { return o.planner.Stats() }

// ResetPlanCache drops every memoized plan. Benchmarks and the overhead
// table use it to measure the raw solve path; production code never needs
// it (the cache self-invalidates on cost-model revisions).
func (o *Optimizer) ResetPlanCache() { o.planner.Reset() }

// appendPlanKey fingerprints a Schedule call into buf. Two calls with equal
// keys under the same cost-model revision build the identical ilp.Problem —
// the choice set of a task is a pure function of (signature, cost model,
// platform), and the chain constraints are a pure function of (start,
// deadlines) — so the memoized assignment is exactly what a fresh solve
// would return. The key spells out the full (outstanding events + predicted
// suffix, deadlines) contents rather than hashing them, so a collision
// cannot silently corrupt a plan. Appending into a reusable buffer keeps the
// cache-hit fast path allocation-free (map lookup by string(buf) does not
// copy).
func appendPlanKey(buf []byte, start simtime.Time, tasks []*Task) []byte {
	buf = strconv.AppendInt(buf, int64(start), 10)
	for _, t := range tasks {
		buf = append(buf, '|')
		buf = append(buf, t.Signature.App...)
		buf = append(buf, '/')
		buf = strconv.AppendInt(buf, int64(t.Signature.Type), 10)
		buf = append(buf, '/')
		buf = strconv.AppendInt(buf, int64(t.Signature.TargetKind), 10)
		buf = append(buf, '@')
		buf = strconv.AppendInt(buf, int64(t.Deadline), 10)
	}
	return buf
}

// Schedule assigns a configuration to every task such that the total
// predicted energy is minimized while each task finishes by its deadline
// when execution starts at start (Eqn. 5). Infeasible deadlines (Type I
// events) are met as early as possible. It returns whether all original
// deadlines are predicted to be met.
//
// A repeated horizon (same start, same task signatures and deadlines, no
// cost-model update in between) is answered from the plan cache without
// solving; the applied assignment is identical either way.
func (o *Optimizer) Schedule(start simtime.Time, tasks []*Task) bool {
	if len(tasks) == 0 {
		return true
	}
	if o.planRev != o.cost.rev {
		o.planner.Reset()
		o.planRev = o.cost.rev
	}
	o.keyBuf = appendPlanKey(o.keyBuf[:0], start, tasks)
	choice, feasible := o.planner.Plan(o.keyBuf, start, len(tasks),
		func(i int) simtime.Time { return tasks[i].Deadline },
		func(i int, cfg acmp.Config) simtime.Duration { return o.cost.PredictLatency(tasks[i].Signature, cfg) })
	configs := o.platform.Configs()
	for i, t := range tasks {
		cfg := configs[choice[i]]
		t.Config = cfg
		t.EstimatedLatency = o.cost.PredictLatency(t.Signature, cfg)
	}
	return feasible
}
