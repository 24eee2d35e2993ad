// Package artifacts is the shared session-artifact cache: the immutable
// inputs that every simulation session of a campaign is built from —
// generated traces, their runtime event lists, platform/trace fingerprints,
// and offline-trained sequence learners — built exactly once per process and
// shared by every consumer.
//
// A campaign is the cross product apps × trace seeds × schedulers (times
// sweep configurations); before this cache, each of the ~6 schedulers
// regenerated the identical trace, re-parsed its runtime events, re-hashed
// its fingerprint and (per harness) re-trained the identical learner for
// every (app, seed) pair it touched. The batch runner's memo cache
// deduplicates the *results* of identical sessions; this package
// deduplicates the *inputs* of distinct ones, which is what gates
// unique-session throughput once the solver is fast (see BENCH_pr4.json).
//
// Every artifact is immutable after construction:
//
//   - traces are plain data and no consumer mutates events;
//   - runtime event instances are read-only by engine convention (outcomes
//     reference them, nothing writes them);
//   - fingerprints are strings;
//   - trained learners are read-only at prediction time (each predictor owns
//     its own scratch buffers).
//
// Each artifact kind is one memo.Cache, so construction is singleflight:
// concurrent campaigns requesting the same artifact block on one build and
// share the result. The cache is unbounded and process-lived, like the batch
// memo cache it feeds: artifacts are a few kilobytes each and bounded by the
// distinct (app, seed) pairs and training configurations a process touches.
// The per-trace derivations (runtime events, fingerprints) are memoized only
// for traces the store itself generated — pointer-keyed entries for
// externally built traces would never be hit again and would grow without
// bound, so they are computed without caching instead.
//
// The DOM page-tree half of session setup is cached one layer down, in
// package webapp (every webapp.NewSession clones cached master pages); its
// counters are surfaced through Stats here so one snapshot covers the whole
// artifact layer.
package artifacts

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/acmp"
	"repro/internal/memo"
	"repro/internal/mlr"
	"repro/internal/predictor"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

// Default is the process-wide store shared by the experiment harness, the
// campaign server, and cmd/pes-bench. Sessions built through
// internal/sessions use it unless a spec names another store.
var Default = NewStore()

// traceKey identifies one generated trace.
type traceKey struct {
	app     string
	seed    int64
	purpose string
	opts    trace.Options
}

// LearnerKey identifies one offline training run: the seen-application
// corpus shape plus the SGD seed. Equal keys produce bit-identical models
// (training is deterministic), so every harness with the same configuration
// shares one trained learner.
type LearnerKey struct {
	// TracesPerApp is the number of training traces per seen application.
	TracesPerApp int
	// CorpusSeed is the base seed of the training corpus.
	CorpusSeed int64
	// TrainSeed seeds the SGD shuffling (mlr.TrainConfig.Seed).
	TrainSeed int64
}

// corpusKey identifies one generated corpus slice.
type corpusKey struct {
	apps         string // "|"-joined app names
	tracesPerApp int
	baseSeed     int64
	purpose      string
	opts         trace.Options
}

// Stats snapshots the store's build/hit counters (plus the process-wide
// page-tree cache of package webapp). A build is one artifact constructed; a
// hit is a request answered by an artifact that another request had already
// begun building.
type Stats struct {
	TraceBuilds       int64 `json:"trace_builds"`
	TraceHits         int64 `json:"trace_hits"`
	RuntimeBuilds     int64 `json:"runtime_builds"`
	RuntimeHits       int64 `json:"runtime_hits"`
	FingerprintBuilds int64 `json:"fingerprint_builds"`
	FingerprintHits   int64 `json:"fingerprint_hits"`
	LearnerBuilds     int64 `json:"learner_builds"`
	LearnerHits       int64 `json:"learner_hits"`
	// TraceEntries is the number of traces currently retained;
	// TraceEvictions counts traces dropped by the LRU bound (zero on
	// unbounded stores). Evicting a trace also drops its derived runtime
	// events and fingerprint; regeneration is deterministic, so eviction
	// never changes an artifact's content, only whether it is rebuilt.
	TraceEntries   int64 `json:"trace_entries"`
	TraceEvictions int64 `json:"trace_evictions"`
	// TraceStoreHits and LearnerStoreHits count artifacts loaded from the
	// persistent store instead of regenerated/retrained (zero when none is
	// attached). A learner store hit skips the SGD training entirely —
	// usually the single most expensive artifact build in a process's life.
	TraceStoreHits   int64 `json:"trace_store_hits"`
	LearnerStoreHits int64 `json:"learner_store_hits"`
	// PageBuilds and PageHits are the process-wide DOM page-tree cache
	// counters (webapp.PageCacheStats); they are global, not per store.
	PageBuilds int64 `json:"page_builds"`
	PageHits   int64 `json:"page_hits"`
}

// Store is one artifact cache. All methods are safe for concurrent use.
type Store struct {
	traces       *memo.Cache[traceKey, *trace.Trace]
	runtimes     *memo.Cache[*trace.Trace, []*webevent.Event]
	fingerprints *memo.Cache[*trace.Trace, string] // content hash of the trace half
	learners     *memo.Cache[LearnerKey, *predictor.SequenceLearner]
	corpora      *memo.Cache[corpusKey, trace.Corpus]

	mu    sync.Mutex
	owned map[*trace.Trace]bool // resident traces this store generated or loaded
}

// NewStore creates an empty artifact store. Most callers want Default; a
// private store only makes sense for isolation in tests and cold-path
// benchmarks.
func NewStore() *Store {
	s := &Store{
		traces:       memo.New[traceKey, *trace.Trace](),
		runtimes:     memo.New[*trace.Trace, []*webevent.Event](),
		fingerprints: memo.New[*trace.Trace, string](),
		learners:     memo.New[LearnerKey, *predictor.SequenceLearner](),
		corpora:      memo.New[corpusKey, trace.Corpus](),
		owned:        make(map[*trace.Trace]bool),
	}
	// Evicting a trace drops its derived runtime events and fingerprint;
	// consumers already holding the pointer keep working (the trace is
	// immutable), and a later request regenerates a bit-identical trace.
	s.traces.OnEvict(func(_ traceKey, tr *trace.Trace) {
		s.mu.Lock()
		delete(s.owned, tr)
		s.mu.Unlock()
		s.runtimes.Delete(tr)
		s.fingerprints.Delete(tr)
	})
	return s
}

// WithMaxTraces bounds the per-trace cache to at most n generated traces,
// evicting least-recently-used ones (together with their derived runtime
// events and fingerprints) beyond it; n <= 0 keeps the cache unbounded (the
// default). Learners and corpora are never evicted — they are bounded by
// the handful of training configurations a process touches. It returns the
// store for chaining. The write is synchronized (a harness may bound the
// process-wide Default while other consumers run), but the bound only
// applies to traces completed after it is set.
func (s *Store) WithMaxTraces(n int) *Store {
	s.traces.SetMax(n)
	return s
}

// WithPersistent layers a persistent content-addressed store under the
// in-memory caches: traces and trained learners are written through on
// first build and loaded back — skipping generation and SGD training — in
// later processes (or sibling stores) sharing the directory. A loaded trace
// is bit-equivalent to a generated one (trace.Trace round-trips through
// JSON exactly, floats included), so fingerprints — and through them the
// batch memo keys — are identical either way. Learner keys are
// configuration-addressed, which is safe because training is deterministic.
// A stored value that no longer decodes (or a model whose feature shape no
// longer matches) is rebuilt. Runtime events, fingerprints and corpora are
// cheap derivations and stay memory-only. Set before the store is shared
// across goroutines; ps may be nil (no persistence, the default). It
// returns the store for chaining.
func (s *Store) WithPersistent(ps *store.Store) *Store {
	s.traces.Persist(ps, memo.Codec[traceKey, *trace.Trace]{
		Key: func(k traceKey) string {
			return fmt.Sprintf("trace|%s|%d|%s|%+v", k.app, k.seed, k.purpose, k.opts)
		},
		Encode: func(tr *trace.Trace) ([]byte, error) { return json.Marshal(tr) },
		Decode: func(b []byte) (*trace.Trace, error) {
			tr := new(trace.Trace)
			if err := json.Unmarshal(b, tr); err != nil {
				return nil, err
			}
			return s.own(tr), nil
		},
	})
	s.learners.Persist(ps, memo.Codec[LearnerKey, *predictor.SequenceLearner]{
		Key: func(k LearnerKey) string {
			return fmt.Sprintf("learner|tpa=%d|corpus=%d|train=%d", k.TracesPerApp, k.CorpusSeed, k.TrainSeed)
		},
		Encode: func(l *predictor.SequenceLearner) ([]byte, error) { return json.Marshal(l.Model()) },
		Decode: func(b []byte) (*predictor.SequenceLearner, error) {
			m := new(mlr.Model)
			if err := json.Unmarshal(b, m); err != nil {
				return nil, err
			}
			return predictor.LearnerFromModel(m)
		},
	})
	return s
}

// own marks a trace as generated (or loaded) by this store, so its derived
// artifacts are memoized. It runs inside the trace's build, before any
// waiter sees the pointer.
func (s *Store) own(tr *trace.Trace) *trace.Trace {
	s.mu.Lock()
	s.owned[tr] = true
	s.mu.Unlock()
	return tr
}

// owns reports whether the store generated the trace (and thus keeps its
// derived artifacts).
func (s *Store) owns(tr *trace.Trace) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.owned[tr]
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	pageBuilds, pageHits := webapp.PageCacheStats()
	tr, rt, fp, ln := s.traces.Stats(), s.runtimes.Stats(), s.fingerprints.Stats(), s.learners.Stats()
	return Stats{
		TraceBuilds:       tr.Builds,
		TraceHits:         tr.Hits,
		RuntimeBuilds:     rt.Builds,
		RuntimeHits:       rt.Hits,
		FingerprintBuilds: fp.Builds,
		FingerprintHits:   fp.Hits,
		LearnerBuilds:     ln.Builds,
		LearnerHits:       ln.Hits,
		TraceEntries:      tr.Entries,
		TraceEvictions:    tr.Evictions,
		TraceStoreHits:    tr.StoreHits,
		LearnerStoreHits:  ln.StoreHits,
		PageBuilds:        pageBuilds,
		PageHits:          pageHits,
	}
}

// Trace returns the deterministic trace for (application, seed, purpose,
// options), generating it on first request. The returned trace is shared;
// callers must not mutate it.
func (s *Store) Trace(spec *webapp.Spec, seed int64, purpose string, opts trace.Options) *trace.Trace {
	k := traceKey{app: spec.Name, seed: seed, purpose: purpose, opts: opts}
	// Generation cannot fail, so neither can the lookup.
	tr, _, _ := s.traces.Get(k, func() (*trace.Trace, error) {
		tr := trace.Generate(spec, seed, opts)
		tr.Purpose = purpose
		return s.own(tr), nil
	})
	return tr
}

// Runtime returns the runtime event instances of a trace, parsing them on
// first request. Runtime events are immutable by engine convention, so one
// list serves every scheduler replaying the trace. Only traces generated by
// this store are memoized (their pointers are the canonical instances);
// external traces are parsed per call, since a pointer-keyed entry for them
// would never be hit again.
func (s *Store) Runtime(tr *trace.Trace) ([]*webevent.Event, error) {
	if !s.owns(tr) {
		return tr.Runtime()
	}
	evs, _, err := s.runtimes.Get(tr, tr.Runtime)
	return evs, err
}

// Fingerprint hashes the platform parameters and the full trace content.
// (Platform.Name, App, Seed) alone do not pin the simulation inputs: a
// caller may tweak an exported platform field without renaming it, or load
// or edit a trace whose events differ from the generated ones. Only the
// exported, pointer-free fields are hashed (fmt prints them
// deterministically); the platform's unexported lazily-built config cache
// stays out of the hash.
//
// The expensive half — walking every trace event — is memoized per
// store-generated trace (external traces are hashed per call, see Runtime);
// the handful of platform fields are hashed fresh on every call, so no
// per-platform-instance state accumulates no matter how many Platform
// values a caller constructs. The memo assumes the trace is immutable once
// sessions are being built from it — the same assumption every other shared
// artifact makes.
func (s *Store) Fingerprint(p *acmp.Platform, tr *trace.Trace) string {
	var traceHash string
	if !s.owns(tr) {
		traceHash = computeTraceHash(tr)
	} else {
		traceHash, _, _ = s.fingerprints.Get(tr, func() (string, error) { return computeTraceHash(tr), nil })
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%+v|%+v|%d|%d|%g|%s",
		p.Name, p.Little, p.Big, p.DVFSLatency, p.MigrationLatency, p.IdlePowerMW, traceHash)
	return fmt.Sprintf("%016x", h.Sum64())
}

// computeTraceHash hashes the trace half of a fingerprint: the DOM seed and
// every event.
func computeTraceHash(tr *trace.Trace) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|", tr.DOMSeed, len(tr.Events))
	for i := range tr.Events {
		fmt.Fprintf(h, "%+v;", tr.Events[i])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Corpus returns the deterministic corpus for the application set, sharing
// each trace with the per-trace cache (a corpus slice is assembled once per
// distinct shape). It mirrors trace.GenerateCorpus exactly.
func (s *Store) Corpus(apps []*webapp.Spec, tracesPerApp int, baseSeed int64, purpose string, opts trace.Options) trace.Corpus {
	names := ""
	for i, spec := range apps {
		if i > 0 {
			names += "|"
		}
		names += spec.Name
	}
	k := corpusKey{apps: names, tracesPerApp: tracesPerApp, baseSeed: baseSeed, purpose: purpose, opts: opts}
	corpus, _, _ := s.corpora.Get(k, func() (trace.Corpus, error) {
		out := make(trace.Corpus, 0, len(apps)*tracesPerApp)
		for ai, spec := range apps {
			for u := 0; u < tracesPerApp; u++ {
				out = append(out, s.Trace(spec, trace.CorpusSeed(baseSeed, ai, u), purpose, opts))
			}
		}
		return out, nil
	})
	return corpus
}

// Learner returns the trained sequence learner for the key (and the training
// corpus it was fitted on), training it on first request. Training is
// deterministic, so every harness configured identically shares one model —
// and, through the session memo key's learner identity, one batch cache
// slot per session.
func (s *Store) Learner(k LearnerKey) (*predictor.SequenceLearner, trace.Corpus, error) {
	// The corpus is returned alongside the learner even when the model was
	// loaded from the persistent store (the harness replays training traces
	// for its own reporting); its traces go through the per-trace cache, so
	// a persistent store warms them too.
	corpus := s.Corpus(webapp.SeenApps(), k.TracesPerApp, k.CorpusSeed, trace.PurposeTrain, trace.Options{})
	learner, _, err := s.learners.Get(k, func() (*predictor.SequenceLearner, error) {
		learner := predictor.NewSequenceLearner()
		if err := learner.Train(corpus, mlr.TrainConfig{Seed: k.TrainSeed}); err != nil {
			return nil, fmt.Errorf("artifacts: training %+v: %w", k, err)
		}
		return learner, nil
	})
	return learner, corpus, err
}
