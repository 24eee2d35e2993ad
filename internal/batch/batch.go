// Package batch is the concurrent batch-session runner on top of the
// unified simulation engine. An experiment sweep simulates the same user
// sessions many times over — the same (platform, app, trace seed, scheduler,
// predictor configuration) tuple reappears across figures — so the runner
// memoizes results by that tuple and executes distinct sessions in parallel
// on a worker pool. Each unique session simulates exactly once per Runner,
// no matter how many times or how concurrently it is requested.
package batch

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifacts"
	"repro/internal/engine"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/store"
)

// Key identifies one unique session simulation. Two sessions with equal keys
// must be guaranteed by the caller to produce identical results; the runner
// then simulates only one of them.
type Key struct {
	// Platform is the hardware model name (e.g. "Exynos5410").
	Platform string
	// App is the application name.
	App string
	// TraceSeed is the user/session seed the trace was generated from.
	TraceSeed int64
	// Scheduler is the scheduler name (e.g. "PES").
	Scheduler string
	// Predictor is a canonical encoding of the predictor configuration, or
	// empty for schedulers that have none.
	Predictor string
	// Variant distinguishes any further state the simulation depends on
	// that the fields above do not capture — e.g. a trace fingerprint when
	// traces are generated with non-default options, or the identity of a
	// shared trained model. Leave empty when the other fields fully
	// determine the result.
	Variant string
}

// Session is one unit of batch work: the memoization key plus the function
// that simulates the session on a cache miss. Run must be self-contained
// (construct its own scheduler instance) so that sessions can execute on
// any worker concurrently.
type Session struct {
	Key Key
	Run func() (*engine.Result, error)
}

// Stats reports the work a Runner has performed.
type Stats struct {
	// Sessions is the number of sessions resolved: UniqueRuns + CacheHits +
	// StoreHits.
	Sessions int64
	// UniqueRuns is the number of simulations actually executed, failed
	// ones included.
	UniqueRuns int64
	// CacheHits is the number of sessions served from the memo cache.
	CacheHits int64
	// CacheEntries is the number of results currently retained in the memo
	// cache.
	CacheEntries int64
	// CacheEvictions is the number of results dropped by the LRU bound
	// (zero on unbounded runners). An evicted session re-simulates on its
	// next request — results are deterministic, so eviction never changes
	// what a session returns, only whether it is recomputed.
	CacheEvictions int64
	// StoreHits is the number of sessions served from the persistent store
	// (zero when none is attached): the memo cache missed, but the session's
	// result was already on disk — from an earlier process, another runner
	// sharing the store, or an entry this runner built and later evicted —
	// so no simulation ran. Store-served sessions count toward neither
	// UniqueRuns nor CacheHits.
	StoreHits int64
	// Solver sums the constrained-optimization work of the unique runs
	// (sessions served from the memo cache or the persistent store
	// contribute nothing — their solver work was never repeated).
	Solver optimizer.SolverStats
	// Artifacts snapshots the shared artifact store attached to the runner
	// (nil when none is attached): how often the session inputs — traces,
	// runtime events, fingerprints, trained learners, DOM pages — were
	// served from cache instead of regenerated. The tag matches the
	// sibling fields' (untagged) PascalCase so the served stats payload
	// keeps one casing style.
	Artifacts *artifacts.Stats `json:"Artifacts,omitempty"`
	// Store snapshots the persistent store attached to the runner (nil when
	// none is attached): records on disk, recovery outcome, raw hit/miss
	// counters. Tagged PascalCase to match the sibling untagged fields.
	Store *store.Stats `json:"Store,omitempty"`
}

// Runner executes batches of sessions on a worker pool with a memoized
// result cache. A Runner is safe for concurrent use and may be reused
// across batches; the cache persists for its lifetime.
type Runner struct {
	workers   int
	artifacts *artifacts.Store
	persist   *store.Store
	cache     *memo.Cache[Key, *engine.Result]

	solverMu sync.Mutex
	solver   optimizer.SolverStats

	// sessionSeconds and solveSeconds are native latency histograms set by
	// RegisterMetrics at wiring time (nil when telemetry is unwired — all
	// observations are nil-safe no-ops).
	sessionSeconds *obs.Histogram
	solveSeconds   *obs.Histogram
}

// NewRunner creates a runner with the given worker-pool size; workers <= 0
// selects runtime.NumCPU().
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Runner{workers: workers, cache: memo.New[Key, *engine.Result]()}
}

// WithMaxEntries bounds the memo cache to at most n completed results,
// evicting least-recently-used entries beyond it; n <= 0 keeps the cache
// unbounded (the default). It returns the runner for chaining. The write is
// synchronized, but the bound only applies to entries completed after it is
// set — set it before running batches.
func (r *Runner) WithMaxEntries(n int) *Runner {
	r.cache.SetMax(n)
	return r
}

// Workers returns the worker-pool size.
func (r *Runner) Workers() int { return r.workers }

// AttachArtifacts associates the shared artifact store whose counters Stats
// should report alongside the memo-cache counters. It returns the runner for
// chaining. Attach before the runner is shared across goroutines.
func (r *Runner) AttachArtifacts(s *artifacts.Store) *Runner {
	r.artifacts = s
	return r
}

// WithStore layers a persistent content-addressed store under the in-memory
// memo cache: every memo miss consults the store before simulating, and
// every fresh simulation is written through. Results decode from stored
// bytes bit-identically (engine.Result round-trips through JSON exactly), so
// a store-served session is indistinguishable from a memoized one — which is
// also what makes LRU eviction cheap: an evicted entry falls back to a store
// hit instead of a re-simulation. Several Runners may share one store (the
// store's own singleflight keeps builds exactly-once across them); set it
// before the runner is shared across goroutines. It returns the runner for
// chaining; ps may be nil (no persistence, the default).
func (r *Runner) WithStore(ps *store.Store) *Runner {
	r.persist = ps
	r.cache.Persist(ps, memo.Codec[Key, *engine.Result]{
		Key:    storeKey,
		Encode: func(res *engine.Result) ([]byte, error) { return json.Marshal(res) },
		Decode: func(b []byte) (*engine.Result, error) {
			res := new(engine.Result)
			return res, json.Unmarshal(b, res)
		},
	})
	return r
}

// storeKey renders a memo key as the persistent store's content address.
// Every component of Key is content-derived (Variant carries the platform,
// trace and learner fingerprints), so equal strings across processes mean
// bit-identical results.
func storeKey(k Key) string {
	return fmt.Sprintf("result|%s|%s|%d|%s|%s|%s",
		k.Platform, k.App, k.TraceSeed, k.Scheduler, k.Predictor, k.Variant)
}

// Stats returns a snapshot of the runner's counters.
func (r *Runner) Stats() Stats {
	c := r.cache.Stats()
	st := Stats{
		Sessions:       c.Hits + c.Builds + c.StoreHits,
		UniqueRuns:     c.Builds,
		CacheHits:      c.Hits,
		CacheEntries:   c.Entries,
		CacheEvictions: c.Evictions,
		StoreHits:      c.StoreHits,
		Solver:         r.solverSnapshot(),
	}
	if r.artifacts != nil {
		a := r.artifacts.Stats()
		st.Artifacts = &a
	}
	if r.persist != nil {
		p := r.persist.Stats()
		st.Store = &p
	}
	return st
}

// one resolves a single session through the cache. Only a simulation this
// runner executed contributes solver stats; a result shared from the memo
// or decoded from the store repeated no solver work.
func (r *Runner) one(s Session) (*engine.Result, error) {
	var start time.Time
	if r.sessionSeconds != nil {
		start = time.Now()
	}
	res, src, err := r.cache.Get(s.Key, s.Run)
	if src == memo.Built && res != nil {
		r.solveSeconds.ObserveSeconds(res.Solver.WallNS)
		r.solverMu.Lock()
		r.solver = r.solver.Add(res.Solver)
		r.solverMu.Unlock()
	}
	if r.sessionSeconds != nil {
		r.sessionSeconds.ObserveSeconds(int64(time.Since(start)))
	}
	return res, err
}

// Run simulates every session and returns the results index-aligned with
// the input. Duplicate keys — within the batch or across earlier batches —
// are served from the cache. On error the first error is returned and the
// corresponding results are nil; the remaining sessions still complete.
func (r *Runner) Run(sessions []Session) ([]*engine.Result, error) {
	return r.RunWithProgress(sessions, nil)
}

// RunWithProgress is Run with a progress callback: after each session
// resolves (from the cache or a fresh simulation, successfully or not),
// progress is called with the number of sessions resolved so far and the
// batch size. The callback may run concurrently from several workers and
// completed counts may arrive out of order; it must be cheap and safe for
// concurrent use. A nil progress is ignored.
func (r *Runner) RunWithProgress(sessions []Session, progress func(completed, total int)) ([]*engine.Result, error) {
	return r.RunContext(context.Background(), sessions, progress)
}

// RunContext is RunWithProgress bounded by a context: the runner checks ctx
// between sessions and stops dispatching new work once it is done, returning
// ctx.Err() as the error (unless a session error came first). Simulations
// already in flight run to completion — the engine is not preemptible — and
// their results stay in the cache and the persistent store, so a canceled
// batch re-run later costs only the sessions it never reached. Results for
// unreached sessions are nil.
func (r *Runner) RunContext(ctx context.Context, sessions []Session, progress func(completed, total int)) ([]*engine.Result, error) {
	out := make([]*engine.Result, len(sessions))
	var completed atomic.Int64
	note := func() {
		if progress != nil {
			progress(int(completed.Add(1)), len(sessions))
		}
	}
	workers := r.workers
	if workers > len(sessions) {
		workers = len(sessions)
	}
	if workers <= 1 {
		var firstErr error
		for i, s := range sessions {
			if err := ctx.Err(); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				break
			}
			res, err := r.one(s)
			note()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			out[i] = res
		}
		return out, firstErr
	}

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, err := r.one(sessions[i])
				note()
				if err != nil {
					setErr(err)
					continue
				}
				out[i] = res
			}
		}()
	}
feed:
	for i := range sessions {
		select {
		case idx <- i:
		case <-ctx.Done():
			setErr(ctx.Err())
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return out, firstErr
}
