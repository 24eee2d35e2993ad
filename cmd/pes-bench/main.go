// Command pes-bench is the repo's performance-trajectory harness: it runs
// three sections — the solver microbenchmark suite, representative scheduler
// sessions, and the unique-session throughput benchmark (cold vs
// artifact-warm, serial vs parallel) — and emits one JSON report.
// The committed BENCH_pr3.json and BENCH_pr4.json are the first two points
// of that trajectory; CI re-runs the harness on every PR and fails when the
// solver benchmarks regress more than 20% against the committed baseline or
// the artifact-warm throughput advantage falls below its floor.
//
//	pes-bench -quick -out BENCH.json                # fast PR-sized run
//	pes-bench                                       # full-scale run to stdout
//	pes-bench -quick -check -baseline BENCH_pr4.json
//	pes-bench -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The solver suite is identical in quick and full mode (it is cheap and its
// node counters must stay comparable to the committed baseline); -quick only
// shrinks the session and throughput benchmarks. Node counters are
// fully deterministic for a given -seed; wall times are host measurements
// and are reported but never gated on. The warm/cold throughput *ratio* is
// gated: both sides run on the same host in the same process, so the ratio
// is comparable across machines even though the absolute sessions/sec are
// not.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/acmp"
	"repro/internal/artifacts"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ilp"
	"repro/internal/ilp/chaingen"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/sessions"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// Report is the emitted benchmark document.
type Report struct {
	// Version tags the report layout; bump when fields change meaning.
	Version string `json:"version"`
	// Quick records whether the session/throughput benchmarks ran at
	// reduced scale. The solver suite is scale-independent.
	Quick bool `json:"quick"`
	// Seed is the solver-suite RNG seed; reports are only comparable at
	// equal seeds.
	Seed int64 `json:"seed"`
	// Host records the runtime the report was measured on. Wall-time fields
	// are only comparable between reports from matching hosts; the
	// deterministic node counters are comparable regardless.
	Host HostReport `json:"host"`
	// OracleVersion is the Oracle solver version the session and throughput
	// benchmarks ran ("v1" or "v2"). The v2 gates (per-scheduler throughput
	// floor, zero budget aborts) apply only to v2 reports; -oracle=v1 runs
	// reproduce the paper-exact BENCH_pr4 Oracle figures bit-identically.
	OracleVersion string            `json:"oracle_version,omitempty"`
	Solver        SolverReport      `json:"solver"`
	Sessions      []SessionReport   `json:"sessions,omitempty"`
	Throughput    *ThroughputReport `json:"throughput,omitempty"`
}

// HostReport identifies the toolchain and hardware context of a report.
type HostReport struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// hostReport samples the running process's host context.
func hostReport() HostReport {
	return HostReport{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// ThroughputReport is the unique-session throughput benchmark: how many
// *distinct* sessions per second the stack simulates. Cold replicates the
// pre-artifact-cache path (every scheduler regenerates its trace, re-parses
// runtime events, rebuilds DOM pages, re-hashes the memo fingerprint); warm
// shares all of those through the artifact store. Every session is unique —
// the batch memo cache never serves a result — so this measures simulation
// throughput, not memoization.
type ThroughputReport struct {
	Apps       []string `json:"apps"`
	TraceSeeds []int64  `json:"trace_seeds"`
	Schedulers []string `json:"schedulers"`
	// Sessions is the number of unique sessions per pass; Events the total
	// trace events they replay.
	Sessions int `json:"sessions"`
	Events   int `json:"events"`
	// Reps is the number of passes per mode; the reported rates are the
	// best pass (least scheduling noise).
	Reps int `json:"reps"`
	// Sessions per second: cold serial, artifact-warm serial, and
	// artifact-warm on the parallel batch runner (Workers workers).
	ColdSerialSPS   float64 `json:"cold_serial_sps"`
	WarmSerialSPS   float64 `json:"warm_serial_sps"`
	WarmParallelSPS float64 `json:"warm_parallel_sps"`
	Workers         int     `json:"workers"`
	// WarmColdRatio = WarmParallelSPS / ColdSerialSPS, the headline
	// unique-session speedup of the artifact-warm path (the CI floor
	// applies to it). On a single-core host it degenerates to the serial
	// warm/cold ratio: the campaign mix is then dominated by the Oracle's
	// budget-pinned solves (irreducible by construction — its published
	// figures are traversal artifacts), so the parallel ≥3x headline must
	// be read from a multi-core run, exactly as with the PR 1 batch-runner
	// speedup.
	WarmColdRatio float64 `json:"warm_cold_ratio"`
	// WarmEventsPerSec is the event-replay rate of the best warm-parallel
	// pass.
	WarmEventsPerSec float64 `json:"warm_events_per_sec"`
	// BySched breaks the serial passes down per scheduler, exposing where
	// the time goes: PES gains both the artifact reuse and the
	// zero-allocation predictor path; the Oracle is bounded below by its
	// pinned solver budget; the governors and EBS simulate in microseconds
	// either way.
	BySched []SchedThroughput `json:"by_scheduler"`
	// Notes explain how to read the numbers across hosts.
	Notes []string `json:"notes"`
}

// throughputNotes is attached to every ThroughputReport.
var throughputNotes = []string{
	"cold here runs the PR 4 engine on the pre-artifact-cache setup path; PR 3's engine was itself ~1.8x slower per PES session (BENCH_pr3 sessions: 719us vs 359us) and ~35% slower per figure session, so warm throughput vs the actual PR 3 cold path is the warm/cold ratio times that factor",
	"on a single core the campaign mix is floored by the Oracle's budget-pinned reference solves (see by_scheduler); warm_parallel_sps scales with cores while cold stays serial per session, so multi-core runs (CI) read >=3x directly",
}

// SchedThroughput is the per-scheduler slice of the serial throughput
// passes.
type SchedThroughput struct {
	Scheduler     string  `json:"scheduler"`
	Sessions      int     `json:"sessions"`
	ColdSerialSPS float64 `json:"cold_serial_sps"`
	WarmSerialSPS float64 `json:"warm_serial_sps"`
	WarmColdRatio float64 `json:"warm_cold_ratio"`
}

// warmColdRatioFloor is the CI gate on ThroughputReport.WarmColdRatio: the
// artifact-warm path must simulate unique sessions at least this many times
// faster than the cold path. The floor is the single-core lower bound with
// margin (measured 1.7x on one core, where the parallel and serial warm
// paths coincide); multi-core runners measure 3x and above.
const warmColdRatioFloor = 1.4

// oraclePESRatioFloor is the CI gate on the Oracle v2 throughput floor: the
// Oracle's warm serial sessions/sec must be within this factor of the PES
// path's (BENCH_pr4 had it 6.5x slower; the v2 fast path brings it within
// ~3.5x). Like the warm/cold gate it is a same-host, same-process ratio, so
// it is portable across CI hardware. v1 runs are exempt: the reference
// solver's budget-pinned cost is the artifact the version flag preserves.
const oraclePESRatioFloor = 5.0

// SolverReport summarizes the solver microbenchmark suite: the production
// ilp.Solver versus the frozen reference traversal SolveReferenceOrder on
// identical instances.
type SolverReport struct {
	// Problems is the number of instances in the suite; Aborted counts
	// instances where either search exhausted its node budget (excluded
	// from the energy cross-check and from every counter below).
	Problems int `json:"problems"`
	Aborted  int `json:"aborted"`
	// Nodes and RefNodes are the summed branch-and-bound nodes explored by
	// Solver and SolveReferenceOrder (whose count equals the pre-overhaul
	// SolveReference's bit for bit); NodeRatio = RefNodes/Nodes is the
	// headline reduction (the acceptance floor is 2x). All three are
	// deterministic.
	Nodes     int64   `json:"nodes"`
	RefNodes  int64   `json:"ref_nodes"`
	NodeRatio float64 `json:"node_ratio"`
	// Wall-time per solve for Solver and SolveReferenceOrder over the
	// non-aborted instances: the median of warm passes, each pass one
	// solver alone over the whole set (host measurements).
	NsPerSolve    float64 `json:"ns_per_solve"`
	RefNsPerSolve float64 `json:"ref_ns_per_solve"`
	// EnergyMismatches counts non-aborted instances where Solver returned a
	// different total energy than SolveReferenceOrder; any value but 0 is a
	// bug.
	EnergyMismatches int `json:"energy_mismatches"`
	// GreedyGapPct is the mean energy saving of the exact solve over the
	// greedy heuristic, in percent — what the branch-and-bound buys.
	GreedyGapPct float64 `json:"greedy_gap_pct"`
}

// SessionReport is one end-to-end scheduler session benchmark.
type SessionReport struct {
	App       string                `json:"app"`
	TraceSeed int64                 `json:"trace_seed"`
	Scheduler string                `json:"scheduler"`
	Events    int                   `json:"events"`
	WallMS    float64               `json:"wall_ms"`
	Solver    optimizer.SolverStats `json:"solver"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatalf("pes-bench: %v", err)
	}
}

// run is the testable body of the command: the JSON report goes to -out (or
// stdout), progress and check verdicts to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pes-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "reduced session/throughput scale (solver suite is unaffected)")
	solverOnly := fs.Bool("solver-only", false, "run only the solver microbenchmark suite")
	out := fs.String("out", "", "write the JSON report to this file (default: stdout)")
	baseline := fs.String("baseline", "", "committed report to compare against (e.g. BENCH_pr4.json)")
	check := fs.Bool("check", false, "with -baseline: exit non-zero when the solver or throughput benchmarks regress")
	seed := fs.Int64("seed", 1, "solver-suite RNG seed (must match the baseline's)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the benchmark run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	oracle := fs.String("oracle", "", "oracle solver version for the session/throughput benchmarks: v2 (default) or v1 (reproduces the BENCH_pr4 Oracle figures)")
	debugAddr := fs.String("debug-addr", "", "listen address for a live pprof/expvar debug server during the run (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, obs.DebugHandler()); err != nil {
				fmt.Fprintf(stderr, "pes-bench: debug listener: %v\n", err)
			}
		}()
	}
	oracleVer, err := sched.ParseOracleVersion(*oracle)
	if err != nil {
		return err
	}
	if *check && *baseline == "" {
		return fmt.Errorf("-check requires -baseline")
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	rep := Report{Version: "pr10", Quick: *quick, Seed: *seed, Host: hostReport(), OracleVersion: oracleVer.String()}
	rep.Solver = benchSolver(*seed)
	if !*solverOnly {
		sessions, err := benchSessions(*quick, oracleVer)
		if err != nil {
			return err
		}
		rep.Sessions = sessions
		throughput, err := benchThroughput(*quick, oracleVer)
		if err != nil {
			return err
		}
		rep.Throughput = throughput
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}

	w := io.Writer(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}

	if *baseline != "" {
		return checkBaseline(rep, *baseline, *check, stderr)
	}
	return nil
}

// benchSolver runs the solver microbenchmark suite: identical instances
// through one reused ilp.Solver — the search the PES optimizer and Oracle
// v2 run, reused across solves exactly as they reuse theirs — and the
// frozen reference traversal SolveReferenceOrder. The instances
// come from the shared chaingen distribution (the 17-point Exynos-shaped
// ladder), the same one the ilp node-reduction property test pins.
func benchSolver(seed int64) SolverReport {
	// Sizes mirror the optimizer's real instances: PES plans span an
	// outstanding event plus a handful of predicted ones. Larger windows
	// (the Oracle's 12) exhaust the reference traversal's node budget and
	// would only measure the budget, so they are left to the session
	// benchmarks.
	const perSize = 30
	sizes := []int{2, 3, 4, 6, 8}
	pts := chaingen.Points()
	rng := rand.New(rand.NewSource(seed))
	var problems []ilp.Problem
	for _, n := range sizes {
		for k := 0; k < perSize; k++ {
			problems = append(problems, chaingen.Problem(rng, pts, n))
		}
	}

	rep := SolverReport{Problems: len(problems)}
	var gapSum float64
	var completed []ilp.Problem
	solver := ilp.NewSolver()
	for _, p := range problems {
		// a aliases the solver's scratch, which stays untouched until the
		// next iteration's Solve.
		a := solver.Solve(p)
		r := ilp.SolveReferenceOrder(p)
		if a.Aborted() || r.Aborted() {
			// A search that exhausted its budget measures the budget, not
			// the algorithm; count it separately and keep it out of every
			// counter the baseline check gates on.
			rep.Aborted++
			continue
		}
		completed = append(completed, p)
		rep.Nodes += int64(a.Nodes)
		rep.RefNodes += int64(r.Nodes)
		if diff := a.TotalEnergy - r.TotalEnergy; diff > 1e-9 || diff < -1e-9 {
			rep.EnergyMismatches++
		}
		if gr := ilp.SolveGreedy(p); gr.TotalEnergy > 0 {
			gapSum += 100 * (gr.TotalEnergy - a.TotalEnergy) / gr.TotalEnergy
		}
	}
	if rep.Nodes > 0 {
		rep.NodeRatio = float64(rep.RefNodes) / float64(rep.Nodes)
	}
	if n := len(completed); n > 0 {
		rep.NsPerSolve = medianPassNs(completed, func(p ilp.Problem) { solver.Solve(p) }) / float64(n)
		rep.RefNsPerSolve = medianPassNs(completed, func(p ilp.Problem) { ilp.SolveReferenceOrder(p) }) / float64(n)
		rep.GreedyGapPct = gapSum / float64(n)
	}
	return rep
}

// solverTimingPasses is how many warm passes over the suite medianPassNs
// times; odd, so the median is one pass.
const solverTimingPasses = 7

// medianPassNs times solverTimingPasses passes of solve over every problem,
// after the counting pass above has warmed caches and scratch, and returns
// the median pass in nanoseconds.
func medianPassNs(problems []ilp.Problem, solve func(ilp.Problem)) float64 {
	passes := make([]time.Duration, solverTimingPasses)
	for i := range passes {
		begun := time.Now()
		for _, p := range problems {
			solve(p)
		}
		passes[i] = time.Since(begun)
	}
	sort.Slice(passes, func(i, j int) bool { return passes[i] < passes[j] })
	return float64(passes[len(passes)/2].Nanoseconds())
}

// benchSessions replays fixed-seed sessions under the solver-bearing
// schedulers and reports wall time plus the solver statistics threaded
// through engine.Result.
func benchSessions(quick bool, oracleVer sched.OracleVersion) ([]SessionReport, error) {
	type sess struct {
		app  string
		seed int64
	}
	corpus := []sess{{"cnn", 11}, {"ebay", 5}, {"espn", 9}}
	if quick {
		corpus = corpus[:1]
	}
	// The artifact store trains this configuration at most once per process
	// (the throughput benchmark shares it).
	learner, _, err := artifacts.Default.Learner(artifacts.LearnerKey{TracesPerApp: 3, CorpusSeed: 400, TrainSeed: 1})
	if err != nil {
		return nil, err
	}
	platform := acmp.Exynos5410()
	var out []SessionReport
	for _, s := range corpus {
		spec, err := webapp.ByName(s.app)
		if err != nil {
			return nil, err
		}
		tr := trace.Generate(spec, s.seed, trace.Options{})
		evs, err := tr.Runtime()
		if err != nil {
			return nil, err
		}
		for _, schedName := range []string{"PES", "Oracle"} {
			var policy sched.ProactivePolicy
			if schedName == "PES" {
				policy = core.NewPES(platform, learner, spec, tr.DOMSeed, predictor.DefaultConfig())
			} else {
				policy = sched.NewOracleWithVersion(platform, evs, oracleVer)
			}
			begun := time.Now()
			res := engine.RunProactive(platform, s.app, evs, policy)
			out = append(out, SessionReport{
				App:       s.app,
				TraceSeed: s.seed,
				Scheduler: schedName,
				Events:    len(res.Outcomes),
				WallMS:    float64(time.Since(begun).Nanoseconds()) / 1e6,
				Solver:    res.Solver,
			})
		}
	}
	return out, nil
}

// benchThroughput measures unique-session throughput: one pass simulates
// the full apps × seeds × schedulers cross product (every session unique, no
// memo-cache hits), cold and artifact-warm.
//
// Cold replicates the pre-artifact-cache per-session setup: the trace is
// regenerated for every scheduler, runtime events are re-parsed and the
// fingerprint re-hashed per session (a fresh single-use store guarantees no
// sharing), and the DOM page-tree cache is bypassed. Warm shares everything
// through one pre-warmed store and runs on the batch runner. Both modes run
// the same simulations on the same host, so their ratio is the portable
// headline number.
func benchThroughput(quick bool, oracleVer sched.OracleVersion) (*ThroughputReport, error) {
	scale := throughputScale{apps: []string{"cnn", "ebay", "espn"}, seeds: []int64{11, 5}, reps: 3, oracle: oracleVer}
	if !quick {
		scale.apps = append(scale.apps, "amazon", "google", "twitter")
		scale.seeds = append(scale.seeds, 9)
		scale.reps = 5
	}
	return benchThroughputScaled(scale)
}

// throughputScale parameterizes the throughput campaign (tests shrink it).
type throughputScale struct {
	apps   []string
	seeds  []int64
	reps   int
	oracle sched.OracleVersion
}

// benchThroughputScaled is benchThroughput at an explicit scale.
func benchThroughputScaled(scale throughputScale) (*ThroughputReport, error) {
	apps, seeds, reps := scale.apps, scale.seeds, scale.reps
	scheds := sessions.Names()

	learner, _, err := artifacts.Default.Learner(artifacts.LearnerKey{TracesPerApp: 3, CorpusSeed: 400, TrainSeed: 1})
	if err != nil {
		return nil, err
	}
	platform := acmp.Exynos5410()
	rep := &ThroughputReport{
		Apps:       apps,
		TraceSeeds: seeds,
		Schedulers: scheds,
		Sessions:   len(apps) * len(seeds) * len(scheds),
		Reps:       reps,
		Workers:    runtime.NumCPU(),
		Notes:      throughputNotes,
	}

	specByApp := make(map[string]*webapp.Spec, len(apps))
	for _, app := range apps {
		spec, err := webapp.ByName(app)
		if err != nil {
			return nil, err
		}
		specByApp[app] = spec
	}

	// Per-scheduler serial timings, best-of-reps.
	coldBySched := make(map[string]time.Duration, len(scheds))
	warmBySched := make(map[string]time.Duration, len(scheds))

	// Cold passes: serial, fresh per-session store, page cache bypassed.
	pageCacheWas := webapp.SetPageCache(false)
	defer webapp.SetPageCache(pageCacheWas)
	var coldBest time.Duration
	for r := 0; r < reps; r++ {
		perSched := make(map[string]time.Duration, len(scheds))
		begun := time.Now()
		for _, app := range apps {
			for _, seed := range seeds {
				for _, schedName := range scheds {
					sessBegun := time.Now()
					tr := trace.Generate(specByApp[app], seed, trace.Options{})
					sess, err := sessions.New(sessions.Spec{
						Platform:      platform,
						Trace:         tr,
						Scheduler:     schedName,
						Learner:       learner,
						Predictor:     predictor.DefaultConfig(),
						Artifacts:     artifacts.NewStore(),
						OracleVersion: scale.oracle,
					})
					if err == nil {
						_, err = sess.Run()
					}
					if err != nil {
						return nil, err // the deferred SetPageCache restores the caller's state
					}
					perSched[schedName] += time.Since(sessBegun)
				}
			}
		}
		if d := time.Since(begun); coldBest == 0 || d < coldBest {
			coldBest = d
		}
		for name, d := range perSched {
			if cur, ok := coldBySched[name]; !ok || d < cur {
				coldBySched[name] = d
			}
		}
	}
	// The warm phase measures the cached path by definition; the deferred
	// restore puts the caller's setting back at exit.
	webapp.SetPageCache(true)

	// Warm passes: one shared store, sessions built per pass from the cached
	// artifacts. The serial pass runs the sessions directly (per-scheduler
	// timing); the parallel pass goes through the batch runner. A fresh
	// runner per pass keeps every session a unique run — the memo cache
	// never serves a result.
	store := artifacts.NewStore()
	buildSessions := func() ([]batch.Session, []string, error) {
		list := make([]batch.Session, 0, rep.Sessions)
		names := make([]string, 0, rep.Sessions)
		for _, app := range apps {
			for _, seed := range seeds {
				tr := store.Trace(specByApp[app], seed, trace.PurposeEval, trace.Options{})
				for _, schedName := range scheds {
					sess, err := sessions.New(sessions.Spec{
						Platform:      platform,
						Trace:         tr,
						Scheduler:     schedName,
						Learner:       learner,
						Predictor:     predictor.DefaultConfig(),
						Artifacts:     store,
						OracleVersion: scale.oracle,
					})
					if err != nil {
						return nil, nil, err
					}
					list = append(list, sess)
					names = append(names, schedName)
				}
			}
		}
		return list, names, nil
	}
	// Pre-warm the store (and count events) with one untimed pass.
	warmup, _, err := buildSessions()
	if err != nil {
		return nil, err
	}
	results, err := batch.NewRunner(1).Run(warmup)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		rep.Events += len(r.Outcomes)
	}

	var warmSerialBest time.Duration
	for r := 0; r < reps; r++ {
		list, names, err := buildSessions()
		if err != nil {
			return nil, err
		}
		perSched := make(map[string]time.Duration, len(scheds))
		begun := time.Now()
		for i, sess := range list {
			sessBegun := time.Now()
			if _, err := sess.Run(); err != nil {
				return nil, err
			}
			perSched[names[i]] += time.Since(sessBegun)
		}
		if d := time.Since(begun); warmSerialBest == 0 || d < warmSerialBest {
			warmSerialBest = d
		}
		for name, d := range perSched {
			if cur, ok := warmBySched[name]; !ok || d < cur {
				warmBySched[name] = d
			}
		}
	}

	var warmParallelBest time.Duration
	for r := 0; r < reps; r++ {
		list, _, err := buildSessions()
		if err != nil {
			return nil, err
		}
		runner := batch.NewRunner(0)
		begun := time.Now()
		if _, err := runner.Run(list); err != nil {
			return nil, err
		}
		if d := time.Since(begun); warmParallelBest == 0 || d < warmParallelBest {
			warmParallelBest = d
		}
	}

	n := float64(rep.Sessions)
	rep.ColdSerialSPS = n / coldBest.Seconds()
	rep.WarmSerialSPS = n / warmSerialBest.Seconds()
	rep.WarmParallelSPS = n / warmParallelBest.Seconds()
	rep.WarmColdRatio = rep.WarmParallelSPS / rep.ColdSerialSPS
	rep.WarmEventsPerSec = float64(rep.Events) / warmParallelBest.Seconds()
	perSchedSessions := len(apps) * len(seeds)
	for _, name := range scheds {
		st := SchedThroughput{Scheduler: name, Sessions: perSchedSessions}
		if d := coldBySched[name]; d > 0 {
			st.ColdSerialSPS = float64(perSchedSessions) / d.Seconds()
		}
		if d := warmBySched[name]; d > 0 {
			st.WarmSerialSPS = float64(perSchedSessions) / d.Seconds()
		}
		if st.ColdSerialSPS > 0 {
			st.WarmColdRatio = st.WarmSerialSPS / st.ColdSerialSPS
		}
		rep.BySched = append(rep.BySched, st)
	}
	return rep, nil
}

// checkBaseline compares the current report against the committed baseline.
// Only deterministic (solver counters) or host-relative (the warm/cold
// throughput ratio: both sides run in the same process on the same machine)
// quantities are gated; absolute wall times and sessions/sec are printed for
// context but never fail the check, since CI hardware varies.
func checkBaseline(cur Report, path string, enforce bool, stderr io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	var failures []string
	if base.Seed != cur.Seed || base.Solver.Problems != cur.Solver.Problems {
		failures = append(failures, fmt.Sprintf("suite mismatch: baseline seed=%d/problems=%d, current seed=%d/problems=%d",
			base.Seed, base.Solver.Problems, cur.Seed, cur.Solver.Problems))
	}
	if limit := float64(base.Solver.Nodes) * 1.2; float64(cur.Solver.Nodes) > limit {
		failures = append(failures, fmt.Sprintf("solver node count regressed >20%%: %d vs baseline %d",
			cur.Solver.Nodes, base.Solver.Nodes))
	}
	if cur.Solver.NodeRatio < 2 {
		failures = append(failures, fmt.Sprintf("node-reduction ratio %.2f fell below the 2x floor", cur.Solver.NodeRatio))
	}
	if cur.Solver.EnergyMismatches > 0 {
		failures = append(failures, fmt.Sprintf("%d instances where Solver and SolveReferenceOrder disagree on energy",
			cur.Solver.EnergyMismatches))
	}
	if cur.Throughput != nil && cur.Throughput.WarmColdRatio < warmColdRatioFloor {
		failures = append(failures, fmt.Sprintf("artifact-warm/cold throughput ratio %.2f fell below the %.1fx floor",
			cur.Throughput.WarmColdRatio, warmColdRatioFloor))
	}
	// The v2 fast-path gates: Oracle throughput within the PES floor, and
	// zero budget aborts (a v2 solve that exhausts the node budget means the
	// escalation ladder regressed). v1 reports are exempt — the reference
	// solver's budget-pinned cost is exactly what the version flag preserves.
	if cur.OracleVersion != "v1" {
		if cur.Throughput != nil {
			var oracleSPS, pesSPS float64
			for _, st := range cur.Throughput.BySched {
				switch st.Scheduler {
				case "Oracle":
					oracleSPS = st.WarmSerialSPS
				case "PES":
					pesSPS = st.WarmSerialSPS
				}
			}
			if oracleSPS > 0 && pesSPS > 0 {
				if ratio := pesSPS / oracleSPS; ratio > oraclePESRatioFloor {
					failures = append(failures, fmt.Sprintf(
						"Oracle v2 warm throughput %.0f/s is %.1fx slower than PES %.0f/s (gate: within %.0fx)",
						oracleSPS, ratio, pesSPS, oraclePESRatioFloor))
				}
				fmt.Fprintf(stderr, "pes-bench: oracle v2 warm %.0f/s vs PES %.0f/s (%.1fx, gate %.0fx)\n",
					oracleSPS, pesSPS, pesSPS/oracleSPS, oraclePESRatioFloor)
			}
		}
		aborts := 0
		for _, s := range cur.Sessions {
			if s.Scheduler == "Oracle" {
				aborts += s.Solver.BudgetAborts
			}
		}
		if aborts > 0 {
			failures = append(failures, fmt.Sprintf("Oracle v2 hit the node budget %d time(s); the fast path must prove its optima", aborts))
		}
	}
	fmt.Fprintf(stderr, "pes-bench: nodes %d (baseline %d), node ratio %.2fx (baseline %.2fx), ns/solve %.0f (baseline %.0f, informational)\n",
		cur.Solver.Nodes, base.Solver.Nodes, cur.Solver.NodeRatio, base.Solver.NodeRatio,
		cur.Solver.NsPerSolve, base.Solver.NsPerSolve)
	if t := cur.Throughput; t != nil {
		fmt.Fprintf(stderr, "pes-bench: throughput %d unique sessions: cold %.0f/s, warm serial %.0f/s, warm parallel %.0f/s (%d workers), warm/cold %.2fx (floor %.1fx)\n",
			t.Sessions, t.ColdSerialSPS, t.WarmSerialSPS, t.WarmParallelSPS, t.Workers, t.WarmColdRatio, warmColdRatioFloor)
	}
	if len(failures) == 0 {
		fmt.Fprintln(stderr, "pes-bench: no regressions against", path)
		return nil
	}
	for _, f := range failures {
		fmt.Fprintln(stderr, "pes-bench: REGRESSION:", f)
	}
	if enforce {
		return fmt.Errorf("%d regression(s) against %s", len(failures), path)
	}
	return nil
}
