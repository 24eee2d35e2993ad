package main

import (
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/webapp"
)

// restartCampaigns is the number of campaigns the populate phase writes
// and every restart re-runs; the pool-covering campaigns come first.
const restartCampaigns = 200

// runRestart is the persistence workload. A populate phase runs a journaled
// server on an empty store directory (the write path). Each restart then
// reopens a copy of that directory in a new store and a new server — a new
// simulated process with its own private artifact store — and re-runs the
// same campaigns, every session of which must come from the store (the
// read path). The restarted process runs in this process: it shares the
// webapp page-tree cache with the populate phase, so every restart checks
// that the page cache is not touched at all.
func runRestart(o opts) (*run, error) {
	r := newRun()
	in := newInputs(o.seed)
	camps := in.warmup()
	for i := 0; len(camps) < restartCampaigns; i++ {
		camps = append(camps, in.campaign(i))
	}
	base, err := os.MkdirTemp("", "perfbench-restart-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	pristine := filepath.Join(base, "pristine")

	pop, err := populate(r, pristine, camps)
	if err != nil {
		return nil, err
	}
	sim, err := verifyAgainstDirect(r, pop.log.norm, in.poolKeys())
	if err != nil {
		return nil, err
	}
	if !o.traced {
		plain, err := restartPhase(r, base, pristine, camps, pop, o.seconds, nil)
		if err != nil {
			return nil, err
		}
		plain.report(r)
		sim.report(r)
		return r, nil
	}
	// Traced run: traced restarts first, then untraced ones; both compare
	// every row with the populate run byte for byte.
	traced, err := restartPhase(r, base, pristine, camps, pop, o.seconds/2, o.spans)
	if err != nil {
		return nil, err
	}
	plain, err := restartPhase(r, base, pristine, camps, pop, o.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	traced.layers(r, pop)
	overhead(r, plain.rate(), traced.rate())
	return r, nil
}

// populated is the outcome of the populate phase.
type populated struct {
	log      *campaignLog
	puts     int64
	logBytes int64
}

// populate runs every campaign once against a journaled server on an empty
// store, then shuts it down cleanly.
func populate(r *run, dir string, camps []server.Campaign) (*populated, error) {
	st, _, err := openStoreStack(dir)
	if err != nil {
		return nil, err
	}
	pop := &populated{log: newCampaignLog()}
	closedLoop(st.ts.URL, time.Now().Add(time.Hour), len(camps), func(c *campaignClient, i int) {
		pop.log.add(r, c.do(camps[i]))
	})
	pop.puts = st.persistence.Stats().Puts
	if err := st.close(); err != nil {
		return nil, err
	}
	fi, err := os.Stat(filepath.Join(dir, store.LogName))
	if err != nil {
		return nil, err
	}
	pop.logBytes = fi.Size()
	r.note("populate: %d campaigns, %d distinct sessions, %d store puts, %.1f MB log",
		len(camps), len(pop.log.norm), pop.puts, float64(pop.logBytes)/(1<<20))
	return pop, nil
}

// openStoreStack opens the store in dir and builds a journaled campaign
// server on it: what one process does at boot. It returns the stack and the
// store-open time; the stack's newDur is the server.New time (journal
// recovery, learner and corpus loaded from the store).
func openStoreStack(dir string) (*stack, time.Duration, error) {
	begun := time.Now()
	ps, err := store.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	opened := time.Now()
	cfg := harnessConfig(workers())
	cfg.Store = ps
	svc, err := server.New(server.Config{Experiments: cfg, JobWorkers: workers(), Logger: discardLogger()})
	if err != nil {
		ps.Close()
		return nil, 0, err
	}
	st := &stack{svc: svc, persistence: ps, born: begun, newDur: time.Since(opened)}
	st.ts = httptest.NewServer(svc.Handler())
	return st, opened.Sub(begun), nil
}

// restartResult accumulates the restart cycles of one phase.
type restartResult struct {
	all           phase // every measured campaign of every cycle
	setup, open   []float64
	newMS         []float64
	cycleRates    []float64 // campaigns per second of each restart
	cycleSessions []float64 // sessions per second of each restart
	cycleP50      []float64 // campaign latency percentiles of each restart
	cycleP95      []float64
	recovered     int64
	corrupt       int64
	hits, lookups int64
	cycles        int
}

// rate is the median over restarts of campaigns completed per second.
func (p *restartResult) rate() float64 { return median(p.cycleRates) }

func (p *restartResult) report(r *run) {
	lat := p.all.latencies()
	r.e2e["setup_s"] = median(p.setup)
	r.e2e["sessions_per_s"] = median(p.cycleSessions)
	r.e2e["campaigns_per_s"] = p.rate()
	r.e2e["campaign_ms_p50"] = median(p.cycleP50)
	r.e2e["campaign_ms_p95"] = median(p.cycleP95)
	if len(p.cycleP50) == 0 { // the window ended inside the first restart
		r.e2e["campaign_ms_p50"] = median(lat)
		r.e2e["campaign_ms_p95"] = quantile(lat, 0.95)
	}
	r.note("restart: %d campaigns, %d sessions; %d campaign latencies beyond the overall p95",
		len(p.all.measured), p.all.sessions(), tailSamples(lat))
	r.note("restart: %d restarts, setup median %.1f ms (store open %.1f ms, server.New %.1f ms)",
		p.cycles, 1e3*median(p.setup), median(p.open), median(p.newMS))
}

// restartPhase restarts from a copy of the populated directory until the
// window closes, re-running the campaigns after each restart.
func restartPhase(r *run, base, pristine string, camps []server.Campaign, pop *populated,
	seconds float64, spans *tracer) (*restartResult, error) {
	res := &restartResult{all: phase{log: newCampaignLog()}}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		dir := filepath.Join(base, fmt.Sprintf("restart-%d", cycle))
		if err := copyLog(pristine, dir); err != nil {
			return nil, err
		}
		pb0, ph0 := webapp.PageCacheStats()
		st, openDur, err := openStoreStack(dir)
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, (openDur + st.newDur).Seconds())
		res.open = append(res.open, msOf(openDur))
		res.newMS = append(res.newMS, msOf(st.newDur))
		at := st.persistence.Stats()
		res.recovered = at.Recovered
		if at.CorruptRecords != 0 || at.TornBytes != 0 {
			r.fail("restart %d recovered %d corrupt records and %d torn bytes", cycle, at.CorruptRecords, at.TornBytes)
		}
		if n := st.svc.Resumed(); n != 0 {
			r.fail("restart %d resumed %d campaigns; the populate phase left none unfinished", cycle, n)
		}
		log := newCampaignLog()
		start := time.Now()
		closedLoop(st.ts.URL, deadline, len(camps), func(c *campaignClient, i int) {
			cr := c.do(camps[i])
			if spans != nil && cr.err == nil {
				if err := c.fetchSpans(&cr); err != nil {
					cr.err = err
				}
			}
			log.add(r, cr)
		})
		elapsed := time.Since(start).Seconds()
		sessions := 0
		for _, cr := range log.runs {
			sessions += cr.sessions
		}
		res.cycleRates = append(res.cycleRates, ratio(float64(len(log.runs)), elapsed))
		if len(log.runs) == len(camps) {
			// Percentiles of complete restarts only: each has ten
			// campaigns beyond its p95.
			var lat []float64
			for _, cr := range log.runs {
				lat = append(lat, msOf(cr.total))
			}
			res.cycleP50 = append(res.cycleP50, median(lat))
			res.cycleP95 = append(res.cycleP95, quantile(lat, 0.95))
		}
		res.cycleSessions = append(res.cycleSessions, ratio(float64(sessions), elapsed))
		after := st.snapshot()
		pb1, ph1 := webapp.PageCacheStats()
		if err := st.close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if after.runner.UniqueRuns != 0 {
			r.fail("restart %d simulated %d sessions; all must come from the store", cycle, after.runner.UniqueRuns)
		}
		if after.store.CorruptRecords != 0 {
			r.fail("restart %d read %d corrupt records", cycle, after.store.CorruptRecords)
		}
		if pb1 != pb0 || ph1 != ph0 {
			r.fail("restart %d touched the process-wide page cache (%d builds, %d hits)", cycle, pb1-pb0, ph1-ph0)
		}
		for k, d := range log.norm {
			if want, ok := pop.log.norm[k]; !ok || want != d || pop.log.wall[k] != log.wall[k] {
				r.fail("session %s after restart is not byte-identical to the populate run", k)
			}
		}
		res.all.measured = append(res.all.measured, log.runs...)
		res.all.after.runner = addBatchStats(res.all.after.runner, after.runner)
		res.all.after.arts = addArtifactStats(res.all.after.arts, after.arts)
		res.corrupt += after.store.CorruptRecords
		res.hits += after.store.Hits
		res.lookups += after.store.Hits + after.store.Misses
		res.cycles++
	}
	recordCampaignSpans(spans, res.all.measured)
	return res, nil
}

// layers reports the restart workload's per-layer metrics.
func (p *restartResult) layers(r *run, pop *populated) {
	p.all.layers(r)
	L := r.layers
	L["server.new_ms"] = median(p.newMS)
	L["store.open_ms"] = median(p.open)
	L["store.recovered_records"] = float64(p.recovered)
	L["store.log_bytes"] = float64(pop.logBytes)
	L["store.puts"] = float64(pop.puts)
	L["store.hit_ratio"] = ratio(float64(p.hits), float64(p.lookups))
	L["store.corrupt_records"] = float64(p.corrupt)
	L["restart.cycles"] = float64(p.cycles)
}

// copyLog copies the store log of the populated directory into a fresh one.
func copyLog(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	src, err := os.Open(filepath.Join(from, store.LogName))
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(filepath.Join(to, store.LogName))
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}
