package ilp

import (
	"testing"

	"repro/internal/simtime"
)

// fuzzProblem decodes arbitrary bytes into a small chain problem: at most 6
// items of at most 5 choices each, zero latencies and empty choice lists
// included. Energies are multiples of 1/8, so every sum of at most six of
// them is exact in float64 and optimal energies compare with ==. Missing
// bytes read as zero.
func fuzzProblem(data []byte) Problem {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	p := Problem{Start: simtime.Time(next()) * simtime.Time(simtime.Millisecond)}
	n := next() % 7
	deadline := p.Start
	for i := 0; i < n; i++ {
		m := next() % 6
		deadline = deadline.Add(simtime.Duration(next()) * 2 * simtime.Millisecond)
		it := Item{Deadline: deadline}
		for j := 0; j < m; j++ {
			it.Choices = append(it.Choices, Choice{
				Latency: simtime.Duration(next()) * simtime.Millisecond,
				Energy:  float64(next()) / 8,
			})
		}
		p.Items = append(p.Items, it)
	}
	return p
}

// relaxedDeadlines recomputes, independently of the solvers, each item's
// relaxed deadline — its own, or the earliest achievable finish at minimum
// latencies when that is later — and whether no relaxation was needed.
func relaxedDeadlines(p Problem) ([]simtime.Time, bool) {
	out := make([]simtime.Time, len(p.Items))
	feasible := true
	earliest := p.Start
	for i, it := range p.Items {
		if len(it.Choices) > 0 {
			minLat := it.Choices[0].Latency
			for _, c := range it.Choices[1:] {
				if c.Latency < minLat {
					minLat = c.Latency
				}
			}
			earliest = earliest.Add(minLat)
		}
		out[i] = it.Deadline
		if earliest.After(out[i]) {
			out[i] = earliest
			feasible = false
		}
	}
	return out, feasible
}

// FuzzSolver checks the production search against brute force on small
// instances: Solver must not panic, must meet every relaxed deadline, must
// attain the enumerated optimum energy exactly, must report feasibility
// correctly, and must agree with the frozen reference traversal wherever
// neither search exhausts its budget. One Solver is reused across inputs,
// as the schedulers reuse theirs, so stale scratch would show up too.
func FuzzSolver(f *testing.F) {
	s := NewSolver()
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProblem(data)
		got := cloneAssignment(s.Solve(p))
		deadlines, feasible := relaxedDeadlines(p)
		if len(got.Choice) != len(p.Items) || len(got.Finish) != len(p.Items) {
			t.Fatalf("assignment covers %d/%d of %d items", len(got.Choice), len(got.Finish), len(p.Items))
		}
		if got.Feasible != feasible {
			t.Fatalf("Feasible = %v, want %v for %+v", got.Feasible, feasible, p)
		}
		for i, it := range p.Items {
			if len(it.Choices) > 0 && (got.Choice[i] < 0 || got.Choice[i] >= len(it.Choices)) {
				t.Fatalf("item %d: choice %d out of range [0,%d)", i, got.Choice[i], len(it.Choices))
			}
			if got.Finish[i].After(deadlines[i]) {
				t.Fatalf("item %d finishes at %v past its relaxed deadline %v: %+v", i, got.Finish[i], deadlines[i], p)
			}
		}
		if want := exhaustiveMin(p); got.TotalEnergy != want {
			t.Fatalf("energy %v, brute-force optimum %v for %+v", got.TotalEnergy, want, p)
		}
		if ref := SolveReferenceOrder(p); !got.Aborted() && !ref.Aborted() && got.TotalEnergy != ref.TotalEnergy {
			t.Fatalf("energy %v, SolveReferenceOrder %v for %+v", got.TotalEnergy, ref.TotalEnergy, p)
		}
	})
}
