package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/acmp"
	"repro/internal/artifacts"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/optimizer"
	"repro/internal/sched"
	"repro/internal/sessions"
	"repro/internal/trace"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

const (
	// setupReps is how many times each run builds its harness; setup_s is
	// the median.
	setupReps = 5
	// fixedBatches leading batches are the fixed set every untraced run
	// completes, measured or not: the simulated-outcome metrics cover
	// exactly them, so they repeat for a seed, and their 2,880 traces keep
	// them close across seeds.
	fixedBatches = 160
	// checkedBatches leading batches are re-simulated serially by the
	// direct-run check.
	checkedBatches = 10
	// digestEvery: besides the checked batches, every digestEvery-th batch
	// has its results digested. Marshalling a result costs about a sixth of
	// simulating it, so digesting every batch would measure the benchmark.
	digestEvery = 8
)

// runSweep is the offline batch workload: closed-loop batches of all 18
// applications at one never-seen trace seed under all five schedulers, each
// batch on a fresh batch.Runner (one worker per CPU) and a fresh artifact
// store. Every key is unique, so the memo never hits and the simulation
// layers do all the work.
//
// The process-wide DOM page-tree cache is switched off once the harness is
// built: it keeps every page of every trace seed it has seen, so with
// never-seen seeds it would grow by about 1.4 MB per batch, and memory —
// and GC work — would grow with the number of batches a faster program
// completes. With it off, every page load builds its page.
func runSweep(o opts) (*run, error) {
	r := newRun()
	in := newInputs(o.seed)
	var (
		samples []float64
		setup   *experiments.Setup
	)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		s, err := experiments.NewSetup(harnessConfig(workers()))
		if err != nil {
			return nil, err
		}
		samples = append(samples, time.Since(start).Seconds())
		setup = s
	}
	r.e2e["setup_s"] = median(samples)
	webapp.SetPageCache(false)
	if !o.traced {
		plain, err := sweepPhase(r, in, setup, o.seconds, nil, nil, fixedBatches)
		if err != nil {
			return nil, err
		}
		plain.report(r, o.seconds)
		checkSweepDirect(r, in, setup, plain.digests)
		return r, nil
	}
	// Traced run: the traced phase first, then an untraced phase replaying
	// the same seeds, whose digested batches must digest equal.
	if err := layeredSetup(r); err != nil {
		return nil, err
	}
	traced, err := sweepPhase(r, in, setup, o.seconds/2, o.spans, nil, checkedBatches)
	if err != nil {
		return nil, err
	}
	checkSweepDirect(r, in, setup, traced.digests)
	plain, err := sweepPhase(r, in, setup, o.seconds/2, nil, traced.digests, 0)
	if err != nil {
		return nil, err
	}
	r.note("check: %d untraced batches digest equal to the traced run's", plain.compared)
	traced.layers(r, o.spans)
	overhead(r, plain.rate(), traced.rate())
	return r, nil
}

// batchSize is the number of sessions in a sweep batch.
func batchSize() int { return len(webapp.Registry()) * len(sessions.Names()) }

// sweepResult is one closed-loop sweep phase.
type sweepResult struct {
	batchDur []time.Duration // every measured batch, in order
	// digests holds the session digests of each digested batch, in batch
	// order (applications × schedulers).
	digests  map[int][]digest
	compared int // batches checked against a reference phase
	sim      simAcc
	checkNS  atomic.Int64 // time spent digesting results on the workers

	arts       artifacts.Stats
	pageBuilds int64
	pageHits   int64
	runner     batch.Stats
}

// rate is the sessions simulated per second of measured batches.
func (p *sweepResult) rate() float64 {
	var busy time.Duration
	for _, d := range p.batchDur {
		busy += d
	}
	return ratio(float64(len(p.batchDur)*batchSize()), busy.Seconds())
}

func (p *sweepResult) report(r *run, seconds float64) {
	r.e2e["sessions_per_s"] = p.rate()
	r.e2e["campaigns_per_s"] = p.rate() / float64(batchSize())
	lat := ms(p.batchDur)
	r.e2e["campaign_ms_p50"] = median(lat)
	r.e2e["campaign_ms_p95"] = quantile(lat, 0.95)
	p.sim.report(r)
	r.note("sweep: %d batches, %d sessions in %.2fs; %d batch latencies beyond p95",
		len(p.batchDur), len(p.batchDur)*batchSize(), seconds, tailSamples(lat))
}

// sweepPhase runs batches until the measurement window closes and at least
// minBatches batches are done; batches that start after the window are not
// measured. Every result is checked for one outcome per event. The results
// of digested batches are digested on the workers that simulated them, and
// must equal ref's digests of the same batch where ref has them. A non-nil tracer records spans and swaps every
// session's run for one whose scheduler policy is wrapped in a timing
// decorator.
func sweepPhase(r *run, in *inputs, setup *experiments.Setup, seconds float64, spans *tracer,
	ref map[int][]digest, minBatches int) (*sweepResult, error) {
	p := setup.Config.Platform
	res := &sweepResult{digests: map[int][]digest{}}
	pb0, ph0 := webapp.PageCacheStats()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for b := 0; b < minBatches || time.Now().Before(deadline); b++ {
		measured := time.Now().Before(deadline)
		tid := fmt.Sprintf("batch-%d", b)
		bid := spans.id()
		t0 := time.Now()
		arts := artifacts.NewStore()
		runner := batch.NewRunner(workers()).AttachArtifacts(arts)
		seed := in.sweepSeed(b)
		n := batchSize()
		var (
			specs   = make([]batch.Session, 0, n)
			keys    = make([]sessionKey, 0, n)
			events  = make([]int, 0, n)
			digests []digest
		)
		if b < checkedBatches || b%digestEvery == 0 {
			digests = make([]digest, n)
		}
		for _, spec := range webapp.Registry() {
			ts := time.Now()
			tr := arts.Trace(spec, seed, trace.PurposeEval, trace.Options{})
			spans.add(tid, "trace.build", 0, bid, ts, time.Now(), nil)
			evs, err := arts.Runtime(tr)
			if err != nil {
				return nil, err
			}
			for _, name := range sessions.Names() {
				ts := time.Now()
				sess, err := sessions.New(sessions.Spec{
					Platform: p, Trace: tr, Scheduler: name, Learner: setup.Learner,
					Predictor: setup.Config.Predictor, Artifacts: arts, OracleVersion: setup.Config.OracleVersion,
				})
				if err != nil {
					return nil, err
				}
				if spans != nil {
					sess.Run = tracedSession(spans, tid, bid, p, tr, evs, name, setup)
				}
				if digests != nil {
					sess.Run = res.digesting(sess.Run, &digests[len(specs)])
				}
				spans.add(tid, "sessions.new", 0, bid, ts, time.Now(), nil)
				specs = append(specs, sess)
				keys = append(keys, sessionKey{spec.Name, seed, name})
				events = append(events, len(evs))
			}
		}
		tr0 := time.Now()
		results, err := runner.Run(specs)
		end := time.Now()
		spans.add(tid, "batch.run", 0, bid, tr0, end, nil)
		spans.add(tid, "batch", bid, 0, t0, end, nil)
		r.attempted += int64(len(specs))
		if err != nil {
			r.fail("batch %d: %v", b, err)
		}
		for i, out := range results {
			if out == nil {
				continue // counted through err above
			}
			if len(out.Outcomes) != events[i] {
				r.fail("session %s has %d outcomes for %d events", keys[i], len(out.Outcomes), events[i])
			}
			if b < fixedBatches {
				res.sim.add(keys[i].sched, out)
			}
		}
		if digests != nil {
			res.digests[b] = digests
			if want, ok := ref[b]; ok {
				compareBatch(r, keys, want, digests, "the traced run")
				res.compared++
			}
		}
		res.runner = addBatchStats(res.runner, runner.Stats())
		res.arts = addArtifactStats(res.arts, arts.Stats())
		if measured {
			res.batchDur = append(res.batchDur, end.Sub(t0))
		}
	}
	pb1, ph1 := webapp.PageCacheStats()
	res.pageBuilds, res.pageHits = pb1-pb0, ph1-ph0
	return res, nil
}

// digesting wraps a session run so the worker that simulates it also
// digests its result into slot.
func (p *sweepResult) digesting(run func() (*engine.Result, error), slot *digest) func() (*engine.Result, error) {
	return func() (*engine.Result, error) {
		out, err := run()
		if err != nil {
			return out, err
		}
		start := time.Now()
		*slot, err = resultDigest(out)
		p.checkNS.Add(int64(time.Since(start)))
		return out, err
	}
}

// compareBatch fails every session whose digest differs from want.
func compareBatch(r *run, keys []sessionKey, want, got []digest, what string) {
	for i := range got {
		if want[i] != got[i] {
			r.fail("session %s differs from %s", keys[i], what)
		}
	}
}

// tracedSession rebuilds what sessions.New would run, with the scheduler
// policy wrapped in a timing decorator, and records one span per session
// carrying the summed policy-call time.
func tracedSession(spans *tracer, tid string, parent int64, p *acmp.Platform, tr *trace.Trace,
	evs []*webevent.Event, name string, setup *experiments.Setup) func() (*engine.Result, error) {
	return func() (*engine.Result, error) {
		clock := &policyClock{}
		start := time.Now()
		var out *engine.Result
		switch name {
		case sessions.Interactive, sessions.Ondemand, sessions.EBS:
			var pol sched.ReactivePolicy
			switch name {
			case sessions.Interactive:
				pol = sched.NewInteractive(p)
			case sessions.Ondemand:
				pol = sched.NewOndemand(p)
			default:
				pol = sched.NewEBS(p)
			}
			out = engine.RunReactive(p, tr.App, evs, &timedReactive{inner: pol, clock: clock})
		case sessions.Oracle:
			ov := setup.Config.OracleVersion.OrDefault()
			out = engine.RunProactive(p, tr.App, evs, wrapProactive(sched.NewOracleWithVersion(p, evs, ov), clock))
		case sessions.PES:
			spec, err := webapp.ByName(tr.App)
			if err != nil {
				return nil, err
			}
			pes := core.NewPES(p, setup.Learner, spec, tr.DOMSeed, setup.Config.Predictor)
			out = engine.RunProactive(p, tr.App, evs, wrapProactive(pes, clock))
		default:
			return nil, fmt.Errorf("unknown scheduler %q", name)
		}
		spans.add(tid, "session."+name, 0, parent, start, time.Now(), map[string]int64{
			"plan_ns": clock.planNS, "other_ns": clock.otherNS,
			"plan_calls": clock.planCalls, "events": int64(len(out.Outcomes)),
		})
		return out, nil
	}
}

// layers reports the sweep's per-layer metrics from a traced phase.
func (p *sweepResult) layers(r *run, spans *tracer) {
	L := r.layers
	L["trace.build_ms"] = msOf(spans.total("trace.build"))
	L["trace.builds"] = float64(p.arts.TraceBuilds)
	L["sessions.new_ms"] = msOf(spans.total("sessions.new"))
	artifactRatios(L, p.arts, p.pageBuilds, p.pageHits)

	var sessionNS, policyNS, events int64
	for _, name := range sessions.Names() {
		sn := "session." + name
		d := int64(spans.total(sn))
		plan, other := spans.attr(sn, "plan_ns"), spans.attr(sn, "other_ns")
		sessionNS += d
		policyNS += plan + other
		events += spans.attr(sn, "events")
		switch name {
		case sessions.PES:
			L["core.plan_ms"] = float64(plan) / 1e6
			L["core.observe_ms"] = float64(other) / 1e6
			L["core.plan_calls"] = float64(spans.attr(sn, "plan_calls"))
		case sessions.Oracle:
			L["sched.oracle_plan_ms"] = float64(plan+other) / 1e6
		default:
			L["sched.reactive_ms"] += float64(plan+other) / 1e6
		}
	}
	engineSelf := sessionNS - policyNS
	L["engine.self_ms"] = float64(engineSelf) / 1e6
	L["engine.events"] = float64(events)
	L["engine.ns_per_event"] = ratio(float64(engineSelf), float64(events))
	solverLayers(L, p.runner.Solver)

	runMS := msOf(spans.total("batch.run"))
	L["batch.run_ms"] = runMS
	checkMS := float64(p.checkNS.Load()) / 1e6
	L["bench.check_ms"] = checkMS
	L["batch.self_ms"] = float64(workers())*runMS - float64(sessionNS)/1e6 - checkMS
	runnerLayers(L, p.runner)

	wall := msOf(spans.total("batch"))
	unattributed := wall - L["trace.build_ms"] - L["sessions.new_ms"] - runMS
	L["unattributed_ms"] = unattributed
	L["unattributed_pct"] = 100 * ratio(unattributed, wall)
}

// checkSweepDirect re-simulates the leading batches serially — each session
// run directly, no runner and no memo — on a fresh artifact store and fails
// every session whose digest differs from the batch-runner result.
func checkSweepDirect(r *run, in *inputs, setup *experiments.Setup, digests map[int][]digest) {
	arts := artifacts.NewStore()
	checked := 0
	for b := 0; b < checkedBatches; b++ {
		seed := in.sweepSeed(b)
		i := 0
		for _, spec := range webapp.Registry() {
			tr := arts.Trace(spec, seed, trace.PurposeEval, trace.Options{})
			for _, name := range sessions.Names() {
				k := sessionKey{spec.Name, seed, name}
				sess, err := sessions.New(sessions.Spec{
					Platform: setup.Config.Platform, Trace: tr, Scheduler: name, Learner: setup.Learner,
					Predictor: setup.Config.Predictor, Artifacts: arts, OracleVersion: setup.Config.OracleVersion,
				})
				var out *engine.Result
				if err == nil {
					out, err = sess.Run()
				}
				var d digest
				if err == nil {
					d, err = resultDigest(out)
				}
				if err != nil || digests[b] == nil || d != digests[b][i] {
					r.fail("session %s differs from a direct serial run (%v)", k, err)
				}
				checked++
				i++
			}
		}
	}
	r.note("check: %d sessions of the first %d batches match a direct serial run", checked, checkedBatches)
}

// overhead reports the tracing overhead: how much faster the untraced phase
// ran than the traced one, in percent of the traced rate.
func overhead(r *run, plainRate, tracedRate float64) {
	r.layers["trace.overhead_pct"] = 100 * (ratio(plainRate, tracedRate) - 1)
	r.note("tracing overhead: untraced %.1f/s, traced %.1f/s (%+.1f%%)",
		plainRate, tracedRate, r.layers["trace.overhead_pct"])
}

// layeredSetup builds one harness in three timed steps on a private store:
// the training and evaluation corpora, the learner (training only, the
// corpus is cached), then experiments.NewSetup, which must find both.
func layeredSetup(r *run) error {
	cfg := experiments.DefaultConfig()
	arts := artifacts.NewStore()
	start := time.Now()
	arts.Corpus(webapp.SeenApps(), cfg.TrainTracesPerApp, cfg.Seed*1000, trace.PurposeTrain, trace.Options{})
	arts.Corpus(webapp.Registry(), cfg.EvalTracesPerApp, cfg.Seed*1000+500000, trace.PurposeEval, trace.Options{})
	corpus := time.Now()
	if _, _, err := arts.Learner(artifacts.LearnerKey{
		TracesPerApp: cfg.TrainTracesPerApp, CorpusSeed: cfg.Seed * 1000, TrainSeed: cfg.Seed,
	}); err != nil {
		return err
	}
	trained := time.Now()
	hc := harnessConfig(workers())
	hc.Artifacts = arts
	before := arts.Stats()
	if _, err := experiments.NewSetup(hc); err != nil {
		return err
	}
	done := time.Now()
	after := arts.Stats()
	if after.LearnerBuilds != before.LearnerBuilds || after.TraceBuilds != before.TraceBuilds {
		r.fail("layered setup: NewSetup trained %d learners and built %d traces the timed steps had already built",
			after.LearnerBuilds-before.LearnerBuilds, after.TraceBuilds-before.TraceBuilds)
	}
	r.layers["experiments.corpus_ms"] = msOf(corpus.Sub(start))
	r.layers["predictor.train_ms"] = msOf(trained.Sub(corpus))
	r.layers["experiments.setup_ms"] = msOf(done.Sub(trained))
	return nil
}

// --- shared layer reporting ---------------------------------------------------

func addBatchStats(a, b batch.Stats) batch.Stats {
	a.Sessions += b.Sessions
	a.UniqueRuns += b.UniqueRuns
	a.CacheHits += b.CacheHits
	a.StoreHits += b.StoreHits
	a.Solver = a.Solver.Add(b.Solver)
	return a
}

// subBatchStats is a − b for the counters addBatchStats sums.
func subBatchStats(a, b batch.Stats) batch.Stats {
	a.Sessions -= b.Sessions
	a.UniqueRuns -= b.UniqueRuns
	a.CacheHits -= b.CacheHits
	a.StoreHits -= b.StoreHits
	a.Solver = optimizer.SolverStats{
		Solves: a.Solver.Solves - b.Solver.Solves, Nodes: a.Solver.Nodes - b.Solver.Nodes,
		PlanCacheHits: a.Solver.PlanCacheHits - b.Solver.PlanCacheHits,
		BudgetAborts:  a.Solver.BudgetAborts - b.Solver.BudgetAborts, WallNS: a.Solver.WallNS - b.Solver.WallNS,
	}
	return a
}

func addArtifactStats(a, b artifacts.Stats) artifacts.Stats {
	a.TraceBuilds += b.TraceBuilds
	a.TraceHits += b.TraceHits
	a.FingerprintBuilds += b.FingerprintBuilds
	a.FingerprintHits += b.FingerprintHits
	return a
}

func artifactRatios(L map[string]float64, a artifacts.Stats, pageBuilds, pageHits int64) {
	L["artifacts.trace_hit_ratio"] = ratio(float64(a.TraceHits), float64(a.TraceHits+a.TraceBuilds))
	L["artifacts.fingerprint_hit_ratio"] = ratio(float64(a.FingerprintHits), float64(a.FingerprintHits+a.FingerprintBuilds))
	L["artifacts.page_hit_ratio"] = ratio(float64(pageHits), float64(pageHits+pageBuilds))
}

// solverLayers reports the solver work of fresh simulations: every result
// of a unique run carries its scheduler's own solver counters.
func solverLayers(L map[string]float64, s optimizer.SolverStats) {
	L["optimizer.solves"] = float64(s.Solves)
	L["optimizer.plan_cache_hit_ratio"] = ratio(float64(s.PlanCacheHits), float64(s.PlanCacheHits+s.Solves))
	L["optimizer.solve_ms"] = float64(s.WallNS) / 1e6
	L["ilp.nodes"] = float64(s.Nodes)
	L["ilp.budget_aborts"] = float64(s.BudgetAborts)
}

func runnerLayers(L map[string]float64, s batch.Stats) {
	L["batch.unique_runs"] = float64(s.UniqueRuns)
	L["batch.memo_hit_ratio"] = ratio(float64(s.CacheHits), float64(s.Sessions))
	L["batch.store_hits"] = float64(s.StoreHits)
}
