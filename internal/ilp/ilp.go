// Package ilp provides the integer-linear-programming solver behind the PES
// optimizer (Eqn. 2–5 of the paper).
//
// The scheduling problem has a chain structure: events execute back to back
// on the main thread, each event must be assigned exactly one ACMP
// configuration (Eqn. 2), the cumulative finish time of every prefix must
// meet that event's deadline (Eqn. 4), and the objective is the total energy
// (Eqn. 5). Like the paper, which implements its own solver rather than
// using a third-party LP package, this solver is specialized to that
// structure.
//
// Production code runs two searches:
//
//   - Solver, the reusable zero-alloc branch-and-bound that the PES
//     optimizer and Oracle v2 share: dominance pruning to each item's
//     energy/latency Pareto frontier, memoized suffix latencies, frontier
//     bisection, and a staged arrival-time-grid lower bound for the hard
//     windows (see its type comment).
//   - SolveReferenceOrder, the frozen reference traversal that Oracle v1's
//     published figures depend on: its hardest windows exhaust the node
//     budget, so the returned assignment is an artifact of the traversal
//     and must not change.
//
// SolveGreedy exposes the deadline-aware greedy heuristic that seeds both
// searches' incumbents. The recursive pruned search Solve and the
// pre-overhaul SolveReference are test oracles only: they live in the
// package's _test.go files, where the equivalence tests pin Solver and
// SolveReferenceOrder against them.
package ilp

import (
	"sort"

	"repro/internal/simtime"
)

// Choice is one candidate configuration for an item: its predicted latency
// and energy under that configuration.
type Choice struct {
	Latency simtime.Duration
	Energy  float64
}

// Item is one event to schedule: its absolute deadline and its per-config
// choices. An item with no choices is a zero-cost no-op.
type Item struct {
	Deadline simtime.Time
	Choices  []Choice
}

// Problem is a chain-scheduling instance: items execute in order starting no
// earlier than Start.
type Problem struct {
	Start simtime.Time
	Items []Item
}

// Assignment is the solver output.
type Assignment struct {
	// Choice holds the selected choice index for each item.
	Choice []int
	// TotalEnergy is the summed energy of the selected choices.
	TotalEnergy float64
	// Feasible reports whether every original deadline is met. When the
	// instance is infeasible (e.g. a Type I event), the solver returns the
	// assignment that meets the relaxed deadlines (earliest achievable
	// finish times) with minimal energy, and Feasible is false.
	Feasible bool
	// Finish holds the cumulative finish time of each item under the
	// returned assignment.
	Finish []simtime.Time
	// Nodes is the number of branch-and-bound candidates explored (for
	// overhead reporting and regression benchmarks). Every search counts
	// the same way — one node per candidate choice tried at a search
	// position — so Solver's count is directly comparable with
	// SolveReferenceOrder's (and with the test oracles Solve and
	// SolveReference); dominance pruning and memoized suffix latencies make
	// Solver's count strictly smaller on non-trivial instances.
	Nodes int
}

// Aborted reports whether the search exhausted its node budget before
// completing, in which case the assignment is the best incumbent found
// along the traversal (a traversal artifact) rather than a proven optimum.
func (a Assignment) Aborted() bool { return a.Nodes >= maxNodes }

// maxNodes bounds the branch-and-bound search; beyond it the greedy solution
// stands. With ≤ ~16 items and 17 configurations the bound is generous.
const maxNodes = 400000

// prepared returns a Solver holding only the prep and greedy scratch of a
// non-empty problem — per-item minima, relaxed deadlines, latest admissible
// finish times, suffix energy bounds and the current/best assignment
// vectors — filled by Solver.prepare, and whether the original deadlines
// were all reachable. The one-shot searches below run on it, so every
// production search shares a single implementation of that state, while the
// frontier, grid and stack tables that only Solver.Solve uses stay
// unallocated.
func prepared(p Problem) (Solver, bool) {
	n := len(p.Items)
	assign := make([]int, 2*n)
	s := Solver{
		minLat:       make([]simtime.Duration, n),
		minEnergy:    make([]float64, n),
		deadlines:    make([]simtime.Time, n),
		latestFinish: make([]simtime.Time, n),
		sufEnergy:    make([]float64, n+1),
		earliestArr:  make([]simtime.Time, n+1),
		cur:          assign[:n:n],
		best:         assign[n:],
	}
	return s, s.prepare(p)
}

// energyOrder returns each item's choice indices sorted by ascending energy
// — the candidate ordering of the search, shared (including its
// tie-breaking) with the reference traversal so both visit leaves in the
// same order.
func energyOrder(p Problem) [][]int {
	order := make([][]int, len(p.Items))
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
	return order
}

// materialize derives the finish times (written into finish, one slot per
// item) and the total energy of an assignment.
func materialize(p Problem, choice []int, finish []simtime.Time, feasible bool, nodes int) Assignment {
	now := p.Start
	total := 0.0
	for i := range p.Items {
		if len(p.Items[i].Choices) > 0 {
			c := p.Items[i].Choices[choice[i]]
			now = now.Add(c.Latency)
			total += c.Energy
		}
		finish[i] = now
	}
	return Assignment{
		Choice:      choice,
		TotalEnergy: total,
		Feasible:    feasible,
		Finish:      finish,
		Nodes:       nodes,
	}
}

// SolveReferenceOrder explores candidates in exactly the order — and with
// exactly the node accounting, budget, and abort behaviour — of the
// pre-overhaul reference search (SolveReference, kept as a test oracle),
// but performs each future-feasibility test as the O(1)
// memoized-suffix-latency comparison instead of the reference's O(n) walk.
// Its Assignment (including Nodes) is bit-identical to SolveReference's on
// every instance, aborted searches included; only the wall time drops.
//
// It exists for budget-pinned baselines: the Oracle's published figures were
// produced under the reference search budget, and on its hardest windows
// that budget is exhausted, making the returned assignment an artifact of
// the traversal itself. Oracle v1 therefore keeps this traversal, while the
// PES optimizer and Oracle v2 run Solver.
func SolveReferenceOrder(p Problem) Assignment {
	n := len(p.Items)
	if n == 0 {
		return Assignment{Feasible: true}
	}
	s, feasible := prepared(p)
	order := energyOrder(p)
	bestEnergy := s.greedyInto(p)
	best, cur := s.best, s.cur

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
		if energy+s.sufEnergy[i] >= bestEnergy {
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
			if finish.After(s.latestFinish[i]) {
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

// SolveGreedy returns the assignment of the deadline-aware greedy heuristic
// alone: for each item in order, the lowest-energy choice that keeps the
// current and all future (relaxed) deadlines reachable. Every search seeds
// its incumbent with it, so an exact search's energy is never worse;
// cmd/pes-bench reports the gap.
func SolveGreedy(p Problem) Assignment {
	n := len(p.Items)
	if n == 0 {
		return Assignment{Feasible: true}
	}
	s, feasible := prepared(p)
	s.greedyInto(p)
	return materialize(p, s.best, make([]simtime.Time, n), feasible, 0)
}
