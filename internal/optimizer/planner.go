package optimizer

import (
	"time"

	"repro/internal/acmp"
	"repro/internal/ilp"
	"repro/internal/render"
	"repro/internal/simtime"
)

// maxCachedPlans bounds a plan cache between invalidations. The PES
// optimizer clears its cache wholesale whenever the cost model learns and
// the Oracle never learns, so the bound only caps memory.
const maxCachedPlans = 256

// cachedPlan is one memoized solve: the chosen indices into the platform's
// configuration list plus the solution's feasibility verdict.
type cachedPlan struct {
	choice   []int
	feasible bool
}

// Planner is the one planning routine behind every scheduler that solves
// Eqn. 5: the PES optimizer, with cost-model latency estimates, and the
// Oracle, with exact workloads. It builds the chain problem over the
// platform's configurations on reusable buffers — every item's deadline
// tightened by the display-submission margin, every choice's energy the
// configuration's power over the choice's latency — runs the search it was
// built with, folds the search work into SolverStats, and memoizes the plan
// under the caller's key. Callers supply only the latency source and the
// key.
//
// A Planner is not safe for concurrent use: it belongs to one scheduler
// instance.
type Planner struct {
	platform *acmp.Platform
	solve    func(ilp.Problem) ilp.Assignment
	stats    SolverStats
	plans    map[string]cachedPlan

	// Reusable problem buffers: the item list and one flat backing array
	// for all items' choice lists. No search retains the problem.
	items   []ilp.Item
	choices []ilp.Choice
}

// NewPlanner returns a planner over the platform's configurations that
// searches with solve; nil selects a reusable ilp.Solver, the production
// search.
func NewPlanner(p *acmp.Platform, solve func(ilp.Problem) ilp.Assignment) *Planner {
	if solve == nil {
		solve = ilp.NewSolver().Solve
	}
	return &Planner{platform: p, solve: solve, plans: make(map[string]cachedPlan)}
}

// Stats returns the accumulated solver statistics.
func (pl *Planner) Stats() SolverStats { return pl.stats }

// Reset drops every memoized plan.
func (pl *Planner) Reset() { clear(pl.plans) }

// Plan returns, for each of n items executed back to back from start, the
// index into the platform's Configs of its minimum-energy configuration,
// and whether every original deadline is met. deadline(i) is item i's
// absolute QoS deadline and latency(i, cfg) its latency under cfg.
//
// Two calls with equal keys between Resets must describe the identical
// problem: the second is answered from the plan cache without solving. The
// returned slice belongs to the cache and must not be modified.
func (pl *Planner) Plan(key []byte, start simtime.Time, n int,
	deadline func(i int) simtime.Time, latency func(i int, cfg acmp.Config) simtime.Duration) ([]int, bool) {
	if plan, ok := pl.plans[string(key)]; ok {
		pl.stats.PlanCacheHits++
		return plan.choice, plan.feasible
	}

	configs := pl.platform.Configs()
	nc := len(configs)
	if cap(pl.items) < n {
		pl.items = make([]ilp.Item, 0, 2*n)
	}
	if cap(pl.choices) < n*nc {
		pl.choices = make([]ilp.Choice, 2*n*nc)
	}
	prob := ilp.Problem{Start: start, Items: pl.items[:0]}
	for i := 0; i < n; i++ {
		choices := pl.choices[i*nc : i*nc : (i+1)*nc]
		for _, cfg := range configs {
			lat := latency(i, cfg)
			choices = append(choices, ilp.Choice{
				Latency: lat,
				Energy:  acmp.EnergyMJ(pl.platform.Power(cfg), lat),
			})
		}
		prob.Items = append(prob.Items, ilp.Item{
			Deadline: deadline(i).Add(-render.DisplayMargin),
			Choices:  choices,
		})
	}

	begun := time.Now()
	sol := pl.solve(prob)
	pl.stats.WallNS += time.Since(begun).Nanoseconds()
	pl.stats.Solves++
	pl.stats.Nodes += int64(sol.Nodes)
	if sol.Aborted() {
		pl.stats.BudgetAborts++
	}

	// ilp.Solver's Choice aliases its scratch; copy before retaining.
	plan := cachedPlan{choice: append([]int(nil), sol.Choice...), feasible: sol.Feasible}
	if len(pl.plans) < maxCachedPlans {
		pl.plans[string(key)] = plan
	}
	return plan.choice, plan.feasible
}
