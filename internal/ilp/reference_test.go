package ilp

import (
	"math"
	"sort"

	"repro/internal/simtime"
)

// This file holds the package's test oracles: the recursive searches that
// production code no longer runs, kept so the equivalence tests can pin
// Solver and SolveReferenceOrder against them. Being exported from a
// _test.go file, they are also visible to the external ilp_test package.

// SolveReference is the pre-overhaul exact solver, kept verbatim as the
// behavioural baseline: a branch-and-bound over the full per-item choice
// sets whose future-feasibility test walks the remaining items at every
// node. It returns the same assignment as Solve (property-tested in
// equivalence_test.go) while exploring strictly more nodes on non-trivial
// instances. SolveReferenceOrder reproduces it bit for bit, node counts
// included, which is what cmd/pes-bench times as its reference.
func SolveReference(p Problem) Assignment {
	n := len(p.Items)
	if n == 0 {
		return Assignment{Feasible: true}
	}

	// Minimum latency and energy per item, used for feasibility relaxation
	// and lower bounds.
	minLat := make([]simtime.Duration, n)
	minEnergy := make([]float64, n)
	for i, it := range p.Items {
		if len(it.Choices) == 0 {
			// A degenerate item with no choices: treat as zero-cost no-op.
			minLat[i] = 0
			minEnergy[i] = 0
			continue
		}
		minLat[i] = it.Choices[0].Latency
		minEnergy[i] = it.Choices[0].Energy
		for _, c := range it.Choices[1:] {
			if c.Latency < minLat[i] {
				minLat[i] = c.Latency
			}
			if c.Energy < minEnergy[i] {
				minEnergy[i] = c.Energy
			}
		}
	}

	// Relax deadlines to the earliest achievable finish time so the search
	// space is never empty; remember whether relaxation was needed.
	deadlines := make([]simtime.Time, n)
	feasible := true
	earliest := p.Start
	for i := range p.Items {
		earliest = earliest.Add(minLat[i])
		deadlines[i] = p.Items[i].Deadline
		if earliest.After(deadlines[i]) {
			deadlines[i] = earliest
			feasible = false
		}
	}

	// Suffix sums of minimum latency and energy for pruning.
	sufLat := make([]simtime.Duration, n+1)
	sufEnergy := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		sufLat[i] = sufLat[i+1] + minLat[i]
		sufEnergy[i] = sufEnergy[i+1] + minEnergy[i]
	}

	// Candidate orderings per item: by energy ascending so the first feasible
	// leaf found is already good, improving pruning.
	order := make([][]int, n)
	for i, it := range p.Items {
		idx := make([]int, len(it.Choices))
		for j := range idx {
			idx[j] = j
		}
		sort.Slice(idx, func(a, b int) bool {
			return it.Choices[idx[a]].Energy < it.Choices[idx[b]].Energy
		})
		order[i] = idx
	}

	greedyChoice, greedyEnergy := referenceGreedy(p, deadlines, sufLat)

	best := append([]int(nil), greedyChoice...)
	bestEnergy := greedyEnergy

	cur := make([]int, n)
	nodes := 0
	var dfs func(i int, now simtime.Time, energy float64) bool
	dfs = func(i int, now simtime.Time, energy float64) bool {
		if nodes >= maxNodes {
			return true // abort the search, keep the best found so far
		}
		if i == n {
			if energy < bestEnergy {
				bestEnergy = energy
				copy(best, cur)
			}
			return false
		}
		if energy+sufEnergy[i] >= bestEnergy {
			return false
		}
		it := p.Items[i]
		if len(it.Choices) == 0 {
			cur[i] = 0
			return dfs(i+1, now, energy)
		}
		for _, j := range order[i] {
			nodes++
			c := it.Choices[j]
			finish := now.Add(c.Latency)
			if finish.After(deadlines[i]) {
				continue
			}
			// Future feasibility: every later deadline must remain reachable
			// at minimum latencies.
			ok := true
			t := finish
			for k := i + 1; k < n; k++ {
				t = t.Add(minLat[k])
				if t.After(deadlines[k]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			cur[i] = j
			if dfs(i+1, finish, energy+c.Energy) {
				return true
			}
		}
		return false
	}
	dfs(0, p.Start, 0)

	return materialize(p, best, make([]simtime.Time, n), feasible, nodes)
}

// referenceGreedy is the pre-overhaul greedy: for each item in order, the
// lowest-energy choice that keeps the current and all future (relaxed)
// deadlines reachable, with the future check walking the suffix explicitly.
func referenceGreedy(p Problem, deadlines []simtime.Time, sufLat []simtime.Duration) ([]int, float64) {
	n := len(p.Items)
	choice := make([]int, n)
	total := 0.0
	now := p.Start
	for i, it := range p.Items {
		if len(it.Choices) == 0 {
			continue
		}
		bestJ := -1
		bestEnergy := math.MaxFloat64
		bestLat := simtime.Duration(0)
		for j, c := range it.Choices {
			finish := now.Add(c.Latency)
			if finish.After(deadlines[i]) {
				continue
			}
			// Future reachability under minimum latencies.
			ok := true
			t := finish
			for k := i + 1; k < n; k++ {
				t = t.Add(sufLat[k] - sufLat[k+1])
				if t.After(deadlines[k]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if c.Energy < bestEnergy {
				bestEnergy, bestJ, bestLat = c.Energy, j, c.Latency
			}
		}
		if bestJ == -1 {
			// Should not happen after relaxation, but fall back to the
			// fastest choice defensively.
			for j, c := range it.Choices {
				if bestJ == -1 || c.Latency < it.Choices[bestJ].Latency {
					bestJ = j
					bestLat = c.Latency
					bestEnergy = c.Energy
				}
			}
		}
		choice[i] = bestJ
		total += bestEnergy
		now = now.Add(bestLat)
	}
	return choice, total
}

// frontiers reduces each item's energy-ordered candidate list to its
// energy/latency Pareto frontier: walking in ascending-energy order, a
// choice is kept only if it is strictly faster than every choice kept before
// it. A pruned choice j is dominated by an earlier-ordered keeper k
// (energy(k) <= energy(j), latency(k) <= latency(j)): substituting k for j
// in any feasible assignment stays feasible at no more energy, and the
// substituted assignment is visited first, so no dominated choice can appear
// in the first optimal leaf the search finds — pruning never changes the
// returned assignment. The kept lists have strictly descending latency,
// which feasibleFrom exploits.
func frontiers(p Problem, order [][]int) [][]int {
	front := make([][]int, len(p.Items))
	for i, it := range p.Items {
		kept := order[i][:0] // reuse the order backing array; order is not used afterwards
		var minLat simtime.Duration
		for _, j := range order[i] {
			if len(kept) == 0 || it.Choices[j].Latency < minLat {
				kept = append(kept, j)
				minLat = it.Choices[j].Latency
			}
		}
		front[i] = kept
	}
	return front
}

// feasibleFrom returns the index of the first frontier candidate whose
// latency fits the budget. Frontier latencies are strictly descending, so
// the infeasible candidates form a prefix and binary search finds the cut
// without visiting them.
func feasibleFrom(choices []Choice, frontier []int, budget simtime.Duration) int {
	return sort.Search(len(frontier), func(k int) bool {
		return choices[frontier[k]].Latency <= budget
	})
}

// solvePrep is Solve's own copy of the shared solve state — per-item
// minima, relaxed deadlines and the memoized suffix quantities derived from
// them — written independently of Solver.prepare, so that
// TestFastSolverMatchesSolve compares two implementations of it rather than
// one with itself.
type solvePrep struct {
	minLat    []simtime.Duration
	minEnergy []float64
	// deadlines are the relaxed deadlines: the original deadline, or the
	// earliest achievable finish time when even maximum performance misses
	// it (so the search space is never empty).
	deadlines []simtime.Time
	// feasible reports whether relaxation was unnecessary.
	feasible bool
	// latestFinish[i] = min(deadlines[i], latestFinish[i+1] - minLat[i+1]):
	// a partial schedule is extensible iff finish(i) <= latestFinish[i].
	latestFinish []simtime.Time
	// sufEnergy[i] is the deadline-ignoring energy lower bound of the
	// suffix starting at item i.
	sufEnergy []float64
}

// prepareSolve computes Solve's solve state for a non-empty problem.
func prepareSolve(p Problem) *solvePrep {
	n := len(p.Items)
	pr := &solvePrep{
		minLat:       make([]simtime.Duration, n),
		minEnergy:    make([]float64, n),
		deadlines:    make([]simtime.Time, n),
		feasible:     true,
		latestFinish: make([]simtime.Time, n),
		sufEnergy:    make([]float64, n+1),
	}
	for i, it := range p.Items {
		if len(it.Choices) == 0 {
			continue // a zero-cost no-op
		}
		pr.minLat[i] = it.Choices[0].Latency
		pr.minEnergy[i] = it.Choices[0].Energy
		for _, c := range it.Choices[1:] {
			if c.Latency < pr.minLat[i] {
				pr.minLat[i] = c.Latency
			}
			if c.Energy < pr.minEnergy[i] {
				pr.minEnergy[i] = c.Energy
			}
		}
	}
	earliest := p.Start
	for i := range p.Items {
		earliest = earliest.Add(pr.minLat[i])
		pr.deadlines[i] = p.Items[i].Deadline
		if earliest.After(pr.deadlines[i]) {
			pr.deadlines[i] = earliest
			pr.feasible = false
		}
	}
	pr.latestFinish[n-1] = pr.deadlines[n-1]
	for i := n - 2; i >= 0; i-- {
		pr.latestFinish[i] = pr.latestFinish[i+1].Add(-pr.minLat[i+1])
		if pr.deadlines[i].Before(pr.latestFinish[i]) {
			pr.latestFinish[i] = pr.deadlines[i]
		}
	}
	for i := n - 1; i >= 0; i-- {
		pr.sufEnergy[i] = pr.sufEnergy[i+1] + pr.minEnergy[i]
	}
	return pr
}

// solveGreedy is Solve's own incumbent seed: for each item in order, the
// lowest-energy choice (first in input order on ties) whose finish keeps
// every remaining relaxed deadline reachable, falling back to the fastest
// choice if none does.
func solveGreedy(p Problem, pr *solvePrep) ([]int, float64) {
	choice := make([]int, len(p.Items))
	total := 0.0
	now := p.Start
	for i, it := range p.Items {
		if len(it.Choices) == 0 {
			continue
		}
		bestJ := -1
		bestEnergy := math.MaxFloat64
		bestLat := simtime.Duration(0)
		for j, c := range it.Choices {
			if now.Add(c.Latency).After(pr.latestFinish[i]) {
				continue
			}
			if c.Energy < bestEnergy {
				bestEnergy, bestJ, bestLat = c.Energy, j, c.Latency
			}
		}
		if bestJ == -1 {
			for j, c := range it.Choices {
				if bestJ == -1 || c.Latency < it.Choices[bestJ].Latency {
					bestJ, bestLat, bestEnergy = j, c.Latency, c.Energy
				}
			}
		}
		choice[i] = bestJ
		total += bestEnergy
		now = now.Add(bestLat)
	}
	return choice, total
}

// Solve is the recursive form of Solver's attempt 0: the exact
// branch-and-bound with dominance pruning, memoized suffix latencies and
// frontier bisection, over the same relaxed deadline semantics. Its
// assignment (including tie-breaking among equal-energy optima) is
// identical to SolveReference's whenever neither search aborts on the node
// budget, and Solver's matches it bit for bit on every instance its first
// attempt completes.
func Solve(p Problem) Assignment {
	n := len(p.Items)
	if n == 0 {
		return Assignment{Feasible: true}
	}
	pr := prepareSolve(p)
	front := frontiers(p, energyOrder(p))
	best, bestEnergy := solveGreedy(p, pr)
	cur := make([]int, n)

	nodes := 0
	var dfs func(i int, now simtime.Time, energy float64) bool
	dfs = func(i int, now simtime.Time, energy float64) bool {
		if nodes >= maxNodes {
			return true // abort the search, keep the best found so far
		}
		if i == n {
			if energy < bestEnergy {
				bestEnergy = energy
				copy(best, cur)
			}
			return false
		}
		if energy+pr.sufEnergy[i] >= bestEnergy {
			return false
		}
		it := p.Items[i]
		if len(it.Choices) == 0 {
			cur[i] = 0
			return dfs(i+1, now, energy)
		}
		f := front[i]
		for _, j := range f[feasibleFrom(it.Choices, f, pr.latestFinish[i].Sub(now)):] {
			c := it.Choices[j]
			// The frontier ascends in energy, so once this candidate's
			// energy lower bound reaches the incumbent no later candidate
			// can beat it either: stop scanning. The skipped subtrees are
			// exactly the ones the recursive bound check would reject on
			// entry, so the returned assignment is unchanged.
			if energy+c.Energy+pr.sufEnergy[i+1] >= bestEnergy {
				break
			}
			nodes++
			cur[i] = j
			if dfs(i+1, now.Add(c.Latency), energy+c.Energy) {
				return true
			}
		}
		return false
	}
	dfs(0, p.Start, 0)

	return materialize(p, best, make([]simtime.Time, n), pr.feasible, nodes)
}
