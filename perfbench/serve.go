package main

import (
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/artifacts"
	"repro/internal/batch"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/sessions"
	"repro/internal/store"
	"repro/internal/webapp"
)

// stack is one deployment under test, served by an in-process httptest
// server: a campaign server alone, or a coordinator server with cluster
// workers behind their own httptest servers.
type stack struct {
	svc    *server.Server
	ts     *httptest.Server
	newDur time.Duration // server.New wall time
	born   time.Time

	// cluster deployments only
	coord       *cluster.Coordinator
	workers     []*cluster.Worker
	workerHTTP  []*httptest.Server
	wire        []*byteCounter // traced stacks only
	rpc         *rpcLog        // traced stacks only
	persistence *store.Store   // restart deployments only
}

// close shuts the stack down front to back: HTTP first, then the campaign
// workers, the coordinator's heartbeat, the cluster workers, the store.
func (s *stack) close() error {
	s.ts.Close()
	s.svc.Close()
	if s.coord != nil {
		s.coord.Close()
	}
	for _, w := range s.workerHTTP {
		w.Close()
	}
	if s.persistence != nil {
		return s.persistence.Close()
	}
	return nil
}

// newServeStack is one in-process campaign server.
func newServeStack(traced bool) (*stack, error) {
	st := &stack{born: time.Now()}
	svc, err := server.New(server.Config{
		Experiments: harnessConfig(workers()),
		JobWorkers:  workers(),
		Logger:      discardLogger(),
	})
	if err != nil {
		return nil, err
	}
	st.newDur = time.Since(st.born)
	st.svc = svc
	st.ts = httptest.NewServer(svc.Handler())
	return st, nil
}

// clusterWorkers is the number of in-process cluster workers; each runs a
// single-worker runner (Parallel: 1).
const clusterWorkers = 2

// newClusterStack is a coordinator server with clusterWorkers workers. A
// traced stack wraps the shard transport (keeping its Pinger side) and
// counts the bytes on each worker's HTTP handler.
func newClusterStack(traced bool) (*stack, error) {
	st := &stack{born: time.Now()}
	var addrs []string
	for i := 0; i < clusterWorkers; i++ {
		w, err := cluster.NewWorker(harnessConfig(1))
		if err != nil {
			st.closePartial()
			return nil, err
		}
		h := w.Handler()
		if traced {
			bc := &byteCounter{inner: h}
			st.wire = append(st.wire, bc)
			h = bc
		}
		ts := httptest.NewServer(h)
		st.workers = append(st.workers, w)
		st.workerHTTP = append(st.workerHTTP, ts)
		addrs = append(addrs, ts.URL)
	}
	cfg := cluster.Config{Workers: addrs, Logger: discardLogger()}
	if traced {
		st.rpc = &rpcLog{}
		cfg.Transport = wrapTransport(cluster.NewHTTPTransport(), st.rpc)
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		st.closePartial()
		return nil, err
	}
	st.coord = coord
	begun := time.Now()
	svc, err := server.New(server.Config{
		Experiments: harnessConfig(workers()),
		JobWorkers:  workers(),
		Cluster:     coord,
		Logger:      discardLogger(),
	})
	if err != nil {
		st.closePartial()
		return nil, err
	}
	st.newDur = time.Since(begun)
	st.svc = svc
	st.ts = httptest.NewServer(svc.Handler())
	return st, nil
}

// closePartial releases what a failed constructor had built.
func (s *stack) closePartial() {
	if s.coord != nil {
		s.coord.Close()
	}
	for _, w := range s.workerHTTP {
		w.Close()
	}
}

// snap is a counter snapshot of a stack.
type snap struct {
	runner            batch.Stats
	arts              artifacts.Stats
	coord             cluster.Stats
	wire              int64
	rpcs              int
	pageBuilds, pages int64
	store             store.Stats
}

func (s *stack) snapshot() snap {
	var out snap
	out.pageBuilds, out.pages = webapp.PageCacheStats()
	add := func(st batch.Stats) {
		out.runner = addBatchStats(out.runner, st)
		if st.Artifacts != nil {
			out.arts = addArtifactStats(out.arts, *st.Artifacts)
		}
	}
	if s.coord != nil {
		for _, w := range s.workers {
			add(w.Stats())
		}
		out.coord = s.coord.Stats()
	} else {
		add(s.svc.Stats())
	}
	for _, bc := range s.wire {
		out.wire += bc.in.Load() + bc.out.Load()
	}
	if s.rpc != nil {
		out.rpcs = len(s.rpc.snapshot())
	}
	if s.persistence != nil {
		out.store = s.persistence.Stats()
	}
	return out
}

// phase is one closed-loop campaign phase against one stack.
type phase struct {
	// rss is the peak RSS once rssCampaigns measured campaigns completed.
	rss      float64
	log      *campaignLog
	measured []campaignRun
	win      *window
	before   snap
	after    snap
}

func (p *phase) sessions() int {
	n := 0
	for _, cr := range p.measured {
		n += cr.sessions
	}
	return n
}

func (p *phase) rate() float64 { return p.win.rate(true) }

func (p *phase) latencies() []float64 {
	var out []float64
	for _, cr := range p.measured {
		out = append(out, msOf(cr.total))
	}
	return out
}

// report sets the phase's end-to-end metrics.
func (p *phase) report(r *run, name string) {
	lat := p.latencies()
	r.e2e["sessions_per_s"] = p.win.rate(false)
	r.e2e["campaigns_per_s"] = p.rate()
	r.e2e["campaign_ms_p50"] = p.win.latency(0.5)
	r.e2e["campaign_ms_p95"] = p.win.latency(0.95)
	r.note("%s: %d campaigns, %d sessions in %.2fs; %d campaign latencies beyond the overall p95; campaigns/s by part %.1f",
		name, len(p.measured), p.sessions(), p.win.length.Seconds(), tailSamples(lat), p.win.rates(true))
}

// campaignPhase warms the stack with the campaigns that cover the pool,
// then runs the closed loop for the given seconds. A non-nil tracer fetches
// each campaign's server-side spans and records client-side ones.
func campaignPhase(r *run, in *inputs, st *stack, seconds float64, spans *tracer) *phase {
	p := &phase{log: newCampaignLog()}
	warm := &campaignClient{base: st.ts.URL, hc: newHTTPClient()}
	for _, camp := range in.warmup() {
		p.log.add(r, warm.do(camp))
	}
	warm.hc.CloseIdleConnections()
	nWarm := len(p.log.runs)
	p.before = st.snapshot()
	p.win = newWindow(seconds)
	var done atomic.Int64
	closedLoop(st.ts.URL, p.win.deadline(), -1, func(c *campaignClient, i int) {
		cr := c.do(in.campaign(i))
		if spans != nil && cr.err == nil {
			if err := c.fetchSpans(&cr); err != nil {
				cr.err = err
			}
		}
		p.log.add(r, cr)
		if done.Add(1) == rssCampaigns {
			p.rss = peakRSSMB()
		}
	})
	if p.rss == 0 {
		p.rss = peakRSSMB()
	}
	p.after = st.snapshot()
	p.measured = p.log.runs[nWarm:]
	for _, cr := range p.measured {
		p.win.done(cr.start.Add(cr.total), cr.total, cr.sessions)
	}
	recordCampaignSpans(spans, p.measured)
	return p
}

// rssCampaigns is the amount of work after which peak_rss_mb is read. The
// memo and the page cache grow with every never-seen trace, so a reading at
// the end of the window would grow with the number of campaigns a faster
// program completes.
const rssCampaigns = 300

// runServe is the serving workload: one in-process campaign server driven
// closed loop by one HTTP client per CPU. Campaigns draw from a small fixed
// pool, so most sessions hit the memo.
func runServe(o opts) (*run, error) { return runCampaigns(o, "serve", newServeStack) }

// runCluster drives the same campaign mix through a coordinator server and
// two in-process cluster workers.
func runCluster(o opts) (*run, error) { return runCampaigns(o, "cluster", newClusterStack) }

func runCampaigns(o opts, name string, build func(traced bool) (*stack, error)) (*run, error) {
	r := newRun()
	in := newInputs(o.seed)
	if o.traced {
		return r, tracedCampaigns(r, o, in, build)
	}
	var (
		samples []float64
		st      *stack
	)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		s, err := build(false)
		if err != nil {
			return nil, err
		}
		samples = append(samples, time.Since(start).Seconds())
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		st = s
	}
	r.e2e["setup_s"] = median(samples)
	plain := campaignPhase(r, in, st, o.seconds, nil)
	if err := st.close(); err != nil {
		return nil, err
	}
	plain.report(r, name)
	r.e2e["peak_rss_mb"] = plain.rss
	sim, err := verifyAgainstDirect(r, plain.log.norm, in.poolKeys())
	if err != nil {
		return nil, err
	}
	sim.report(r)
	return r, nil
}

// tracedCampaigns is the traced run of a campaign workload: a traced phase
// on a traced stack, then an untraced phase on a fresh stack with the same
// campaigns, which must serve every common session with equal digests.
// The second phase finds the DOM pages the first one cached, so the
// overhead estimate errs high.
func tracedCampaigns(r *run, o opts, in *inputs, build func(traced bool) (*stack, error)) error {
	if err := layeredSetup(r); err != nil {
		return err
	}
	tst, err := build(true)
	if err != nil {
		return err
	}
	r.layers["server.new_ms"] = msOf(tst.newDur)
	traced := campaignPhase(r, in, tst, o.seconds/2, o.spans)
	lifetime := time.Since(tst.born)
	if err := tst.close(); err != nil {
		return err
	}
	if _, err := verifyAgainstDirect(r, traced.log.norm, in.poolKeys()); err != nil {
		return err
	}
	st, err := build(false)
	if err != nil {
		return err
	}
	plain := campaignPhase(r, in, st, o.seconds/2, nil)
	if err := st.close(); err != nil {
		return err
	}
	compareCommon(r, traced.log.norm, plain.log.norm, in.poolKeys())
	traced.layers(r)
	if tst.rpc != nil {
		rtts := tst.rpc.snapshot()[traced.before.rpcs:traced.after.rpcs]
		r.layers["cluster.shard_rpc_ms_p50"] = median(ms(rtts))
		pings := tst.rpc.pings.Load()
		r.layers["cluster.pings"] = float64(pings)
		// The coordinator probes every 3 s by default; a stack that lived
		// through two periods without one has lost its heartbeats.
		if pings == 0 && lifetime > 7*time.Second {
			r.fail("traced coordinator sent no health probe in %.1fs", lifetime.Seconds())
		}
	}
	overhead(r, plain.rate(), traced.rate())
	return nil
}

// poolKeys lists every session of the campaign pool.
func (in *inputs) poolKeys() map[sessionKey]bool {
	out := map[sessionKey]bool{}
	for _, app := range in.apps {
		for _, seed := range in.seeds {
			for _, name := range sessions.Names() {
				out[sessionKey{app, seed, name}] = true
			}
		}
	}
	return out
}

// compareCommon fails every session the traced and untraced phases both
// served with different digests; both must have served the whole pool.
func compareCommon(r *run, traced, plain map[sessionKey]digest, pool map[sessionKey]bool) {
	common := 0
	for k, d := range plain {
		td, ok := traced[k]
		if !ok {
			if pool[k] {
				r.fail("traced run did not serve pool session %s", k)
			}
			continue
		}
		common++
		if td != d {
			r.fail("session %s differs between the traced and untraced runs", k)
		}
	}
	r.note("check: %d session digests served by both the traced and untraced runs are equal", common)
}

// recordCampaignSpans turns each campaign's client timings and server-side
// spans into tracer spans: the campaign, its submit, wait and results
// calls, and the server's spans as children of the wait.
func recordCampaignSpans(spans *tracer, runs []campaignRun) {
	if spans == nil {
		return
	}
	for _, cr := range runs {
		id := spans.id()
		wait := spans.id()
		submitted := cr.start.Add(cr.submit)
		done := submitted.Add(cr.wait)
		spans.add(cr.id, "campaign", id, 0, cr.start, cr.start.Add(cr.total), map[string]int64{
			"polls": int64(cr.polls), "bytes": int64(cr.bytes), "sessions": int64(cr.sessions),
		})
		spans.add(cr.id, "server.submit", 0, id, cr.start, submitted, nil)
		spans.add(cr.id, "server.wait", wait, id, submitted, done, nil)
		spans.add(cr.id, "server.results", 0, id, done, cr.start.Add(cr.total), nil)
		for _, s := range cr.serverSpans {
			begin := time.UnixMicro(s.StartUS)
			spans.add(cr.id, "server."+s.Name, 0, wait, begin, begin.Add(time.Duration(s.DurUS)*time.Microsecond),
				map[string]int64{"sessions": int64(s.Sessions)})
		}
	}
}

// layers reports the per-layer metrics of a traced campaign phase.
func (p *phase) layers(r *run) {
	L := r.layers
	var submit, results, polls, bytes, queueWait []float64
	var total, covered, simulate, check float64
	for _, cr := range p.measured {
		check += msOf(cr.check)
		submit = append(submit, msOf(cr.submit))
		results = append(results, msOf(cr.results))
		polls = append(polls, float64(cr.polls))
		bytes = append(bytes, float64(cr.bytes))
		total += msOf(cr.total)
		covered += msOf(coverage(cr))
		for _, s := range cr.serverSpans {
			switch s.Name {
			case "queue_wait":
				queueWait = append(queueWait, float64(s.DurUS)/1e3)
			case "simulate":
				simulate += float64(s.DurUS) / 1e3
			}
		}
	}
	n := float64(len(p.measured))
	L["server.submit_ms_p50"] = median(submit)
	L["server.results_ms_p50"] = median(results)
	L["server.status_polls"] = ratio(sumOf(polls), n)
	L["server.results_bytes"] = ratio(sumOf(bytes), n)
	L["server.queue_wait_ms_p50"] = median(queueWait)
	L["batch.run_ms"] = simulate
	L["bench.check_ms"] = check
	L["unattributed_ms"] = total - covered
	L["unattributed_pct"] = 100 * ratio(total-covered, total)

	b, a := p.before, p.after
	runnerLayers(L, subBatchStats(a.runner, b.runner))
	solverLayers(L, subBatchStats(a.runner, b.runner).Solver)
	arts := artifacts.Stats{
		TraceBuilds: a.arts.TraceBuilds - b.arts.TraceBuilds, TraceHits: a.arts.TraceHits - b.arts.TraceHits,
		FingerprintBuilds: a.arts.FingerprintBuilds - b.arts.FingerprintBuilds,
		FingerprintHits:   a.arts.FingerprintHits - b.arts.FingerprintHits,
	}
	L["trace.builds"] = float64(arts.TraceBuilds)
	artifactRatios(L, arts, a.pageBuilds-b.pageBuilds, a.pages-b.pages)

	if a.coord.Shards > 0 || len(a.coord.Members) > 0 {
		L["cluster.shards"] = ratio(float64(a.coord.Shards-b.coord.Shards), n)
		L["cluster.steals"] = ratio(float64(a.coord.Steals-b.coord.Steals), n)
		L["cluster.retries"] = float64(a.coord.Retries - b.coord.Retries)
		L["cluster.worker_failures"] = float64(a.coord.WorkerFailures - b.coord.WorkerFailures)
		remote := subBatchStats(a.coord.Remote, b.coord.Remote)
		L["cluster.remote_memo_hit_ratio"] = ratio(float64(remote.CacheHits), float64(remote.Sessions))
		L["cluster.wire_bytes"] = ratio(float64(a.wire-b.wire), n)
	}
}

// coverage is how much of a campaign's client-side interval its layer
// spans cover: the submit and results calls plus every server-side span
// (queue wait, in-process simulate, cluster dispatch, steal, spill and the
// workers' simulate spans), counted once where they overlap. A worker's
// "solve" span is left out: it sums the solver time recorded in its
// results, cached ones included, so it is not an interval.
func coverage(cr campaignRun) time.Duration {
	type iv struct{ from, to time.Time }
	end := cr.start.Add(cr.total)
	ivs := []iv{
		{cr.start, cr.start.Add(cr.submit)},
		{cr.start.Add(cr.submit + cr.wait), end},
	}
	for _, s := range cr.serverSpans {
		if s.Name == "solve" {
			continue
		}
		from := time.UnixMicro(s.StartUS)
		ivs = append(ivs, iv{from, from.Add(time.Duration(s.DurUS) * time.Microsecond)})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from.Before(ivs[j].from) })
	var sum time.Duration
	var reach time.Time
	for _, v := range ivs {
		if v.from.Before(cr.start) {
			v.from = cr.start
		}
		if v.to.After(end) {
			v.to = end
		}
		if v.from.Before(reach) {
			v.from = reach
		}
		if v.to.After(v.from) {
			sum += v.to.Sub(v.from)
			reach = v.to
		}
	}
	return sum
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
