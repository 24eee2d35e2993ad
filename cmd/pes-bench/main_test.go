package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/sched"
)

// TestSolverSuiteReport runs the solver microbenchmark suite and validates
// the invariants the committed BENCH_pr3.json and the CI smoke job rely on:
// the suite is non-trivial, the overhauled solver is energy-equivalent to
// the reference, and the node reduction meets its 2x floor.
func TestSolverSuiteReport(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-solver-only", "-seed", "1"}, &out, &errOut); err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Version != "pr10" || rep.Solver.Problems == 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if rep.Host.GoVersion == "" || rep.Host.NumCPU < 1 || rep.Host.GOMAXPROCS < 1 || rep.Host.GOOS == "" || rep.Host.GOARCH == "" {
		t.Errorf("host section not populated: %+v", rep.Host)
	}
	if rep.Solver.EnergyMismatches != 0 {
		t.Errorf("Solver and SolveReferenceOrder disagreed on %d instances", rep.Solver.EnergyMismatches)
	}
	if rep.Solver.NodeRatio < 2 {
		t.Errorf("node-reduction ratio %.2f is below the 2x acceptance floor", rep.Solver.NodeRatio)
	}
	if rep.Sessions != nil || rep.Throughput != nil {
		t.Error("-solver-only must omit the session and throughput benchmarks")
	}
}

// TestThroughputGate feeds checkBaseline a report whose warm/cold ratio is
// below the floor and expects the -check gate to fail, and one above it to
// pass.
func TestThroughputGate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	var out, errOut bytes.Buffer
	if err := run([]string{"-solver-only", "-out", path}, &out, &errOut); err != nil {
		t.Fatalf("run -out: %v", err)
	}
	var base Report
	readJSON(t, path, &base)

	cur := base
	cur.Throughput = &ThroughputReport{WarmColdRatio: warmColdRatioFloor - 0.1}
	if err := checkBaseline(cur, path, true, &errOut); err == nil {
		t.Error("checkBaseline passed a warm/cold ratio below the floor")
	}
	cur.Throughput = &ThroughputReport{WarmColdRatio: warmColdRatioFloor + 0.1}
	if err := checkBaseline(cur, path, true, &errOut); err != nil {
		t.Errorf("checkBaseline failed a warm/cold ratio above the floor: %v", err)
	}
}

// TestOracleV2Gates exercises the v2-only gates: the Oracle-vs-PES warm
// throughput floor and the zero-budget-aborts requirement, both exempted
// under -oracle=v1.
func TestOracleV2Gates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	var out, errOut bytes.Buffer
	if err := run([]string{"-solver-only", "-out", path}, &out, &errOut); err != nil {
		t.Fatalf("run -out: %v", err)
	}
	var base Report
	readJSON(t, path, &base)

	mk := func(oracleSPS float64, aborts int, version string) Report {
		cur := base
		cur.OracleVersion = version
		cur.Throughput = &ThroughputReport{
			WarmColdRatio: warmColdRatioFloor + 1,
			BySched: []SchedThroughput{
				{Scheduler: "PES", WarmSerialSPS: 3000},
				{Scheduler: "Oracle", WarmSerialSPS: oracleSPS},
			},
		}
		cur.Sessions = []SessionReport{{Scheduler: "Oracle", Solver: optimizer.SolverStats{BudgetAborts: aborts}}}
		return cur
	}

	if err := checkBaseline(mk(3000/oraclePESRatioFloor-100, 0, "v2"), path, true, &errOut); err == nil {
		t.Error("checkBaseline passed an Oracle v2 slower than PES/5")
	}
	if err := checkBaseline(mk(3000/oraclePESRatioFloor+100, 0, "v2"), path, true, &errOut); err != nil {
		t.Errorf("checkBaseline failed an Oracle v2 within the PES floor: %v", err)
	}
	if err := checkBaseline(mk(1000, 2, "v2"), path, true, &errOut); err == nil {
		t.Error("checkBaseline passed a v2 report with budget aborts")
	}
	// v1 is exempt from both gates: its budget-pinned cost is the artifact.
	if err := checkBaseline(mk(100, 2, "v1"), path, true, &errOut); err != nil {
		t.Errorf("checkBaseline applied the v2 gates to a v1 report: %v", err)
	}
}

// TestCheckAgainstBaseline round-trips a report through -out and -baseline:
// a report never regresses against itself, and a tampered baseline with far
// fewer nodes must fail the -check gate.
func TestCheckAgainstBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	var out, errOut bytes.Buffer
	if err := run([]string{"-solver-only", "-out", path}, &out, &errOut); err != nil {
		t.Fatalf("run -out: %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("-out should leave stdout empty, got %q", out.String())
	}

	out.Reset()
	errOut.Reset()
	if err := run([]string{"-solver-only", "-baseline", path, "-check"}, &out, &errOut); err != nil {
		t.Fatalf("self-check regressed: %v\n%s", err, errOut.String())
	}

	// Tamper: pretend the baseline explored far fewer nodes.
	var rep Report
	readJSON(t, path, &rep)
	rep.Solver.Nodes /= 10
	writeJSON(t, path, rep)
	out.Reset()
	errOut.Reset()
	if err := run([]string{"-solver-only", "-baseline", path, "-check"}, &out, &errOut); err == nil {
		t.Fatal("-check passed against a baseline with 10x fewer nodes")
	}
}

// TestThroughputBenchmarkScaled runs the throughput campaign at a tiny
// scale and validates the report's shape and invariants: every session is
// unique, every mode measured, and the per-scheduler breakdown covers all
// five schedulers.
func TestThroughputBenchmarkScaled(t *testing.T) {
	rep, err := benchThroughputScaled(throughputScale{apps: []string{"espn"}, seeds: []int64{9}, reps: 1, oracle: sched.DefaultOracleVersion})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 5 || rep.Events == 0 {
		t.Fatalf("degenerate throughput report: %+v", rep)
	}
	if rep.ColdSerialSPS <= 0 || rep.WarmSerialSPS <= 0 || rep.WarmParallelSPS <= 0 {
		t.Errorf("all three rates must be measured: %+v", rep)
	}
	if rep.WarmColdRatio <= 0 || rep.WarmEventsPerSec <= 0 {
		t.Errorf("derived rates must be positive: %+v", rep)
	}
	if len(rep.BySched) != 5 {
		t.Fatalf("per-scheduler breakdown has %d rows, want 5", len(rep.BySched))
	}
	for _, s := range rep.BySched {
		if s.Sessions != 1 || s.ColdSerialSPS <= 0 || s.WarmSerialSPS <= 0 {
			t.Errorf("scheduler row not fully measured: %+v", s)
		}
	}
}

// TestSessionBenchmarkQuick covers the session suite at quick scale.
func TestSessionBenchmarkQuick(t *testing.T) {
	reps, err := benchSessions(true, sched.DefaultOracleVersion)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("quick session suite has %d entries, want 2 (PES + Oracle)", len(reps))
	}
	for _, r := range reps {
		if r.Events == 0 || r.WallMS <= 0 {
			t.Errorf("degenerate session report: %+v", r)
		}
		if r.Scheduler == "PES" && r.Solver.Solves == 0 {
			t.Errorf("PES session reported no solves: %+v", r)
		}
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag"},
		{"-check"}, // -check without -baseline
		{"-solver-only", "-baseline", "does-not-exist.json"},
	} {
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatal(err)
	}
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
