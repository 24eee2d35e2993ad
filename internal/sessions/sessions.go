// Package sessions bridges traces and scheduler names to batch sessions: it
// is the one place that knows how to construct every scheduler and run it on
// the unified engine, shared by the experiment harness, cmd/pes-sim, the
// campaign server and cmd/pes-bench.
package sessions

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"

	"repro/internal/acmp"
	"repro/internal/artifacts"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// Canonical scheduler names (also used as batch memo keys and result
// labels).
const (
	Interactive = "Interactive"
	Ondemand    = "Ondemand"
	EBS         = "EBS"
	PES         = "PES"
	Oracle      = "Oracle"
)

// Names lists every scheduler in presentation order.
func Names() []string { return []string{Interactive, Ondemand, EBS, PES, Oracle} }

// Canonical resolves a case-insensitive scheduler name to its canonical
// form.
func Canonical(name string) (string, error) {
	for _, n := range Names() {
		if strings.EqualFold(name, n) {
			return n, nil
		}
	}
	return "", fmt.Errorf("sessions: unknown scheduler %q", name)
}

// Spec describes one session simulation: a trace replayed under a named
// scheduler on a platform. Learner and Predictor are consulted only for
// PES.
type Spec struct {
	Platform  *acmp.Platform
	Trace     *trace.Trace
	Scheduler string
	// Learner is the trained sequence model shared (read-only) by PES
	// sessions.
	Learner *predictor.SequenceLearner
	// Predictor is the PES predictor configuration; it participates in the
	// memo key so that sweeps over it cache correctly.
	Predictor predictor.Config
	// Artifacts is the shared artifact store the session draws its runtime
	// events and fingerprint from; nil selects artifacts.Default. Sessions
	// of the same trace share one parsed event list through it, no matter
	// which scheduler replays them.
	Artifacts *artifacts.Store
	// OracleVersion selects the Oracle solver (zero value = default). It is
	// consulted only for Oracle sessions and participates in their memo key,
	// so v1 and v2 results never alias in caches or on the cluster wire.
	OracleVersion sched.OracleVersion
}

// learnerFPs caches each trained learner's content fingerprint — an FNV-64a
// hash of the model's shape and weight bits. Unlike the per-process
// sequential identifier it replaced, the fingerprint is stable across
// restarts and equal exactly when the trained weights are equal, which is
// what lets PES memo keys address a persistent store: two processes that
// trained the same model (training is deterministic) produce the same key,
// and two differently-trained models can never alias. The map retains the
// learner, bounded by the number of trainings in the process; models are
// immutable once trained, so the cached hash never goes stale.
var (
	learnerMu  sync.Mutex
	learnerFPs = map[*predictor.SequenceLearner]string{}
)

func learnerFingerprint(l *predictor.SequenceLearner) string {
	learnerMu.Lock()
	defer learnerMu.Unlock()
	fp, ok := learnerFPs[l]
	if !ok {
		m := l.Model()
		h := fnv.New64a()
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(m.NumFeatures))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(m.NumClasses))
		h.Write(buf[:])
		for _, row := range m.Weights {
			for _, w := range row {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w))
				h.Write(buf[:])
			}
		}
		fp = fmt.Sprintf("%016x", h.Sum64())
		learnerFPs[l] = fp
	}
	return fp
}

// predictorKey canonically encodes a predictor configuration for session
// memoization.
func predictorKey(cfg predictor.Config) string {
	return fmt.Sprintf("ct=%g,deg=%d,dom=%t", cfg.ConfidenceThreshold, cfg.MaxDegree, cfg.UseDOMAnalysis)
}

// New builds the self-contained batch session for a spec. The returned
// session constructs its own scheduler instance on each (cache-miss) run,
// so it can execute on any worker concurrently. Runtime events and the memo
// fingerprint come from the spec's artifact store: every scheduler replaying
// the same trace shares one parsed event list and one content hash.
func New(s Spec) (batch.Session, error) {
	name, err := Canonical(s.Scheduler)
	if err != nil {
		return batch.Session{}, err
	}
	p, tr := s.Platform, s.Trace
	store := s.Artifacts
	if store == nil {
		store = artifacts.Default
	}
	// Populate the platform's lazy config cache now, from this goroutine:
	// the run closure may execute on any batch worker concurrently with
	// other sessions sharing the platform.
	p.Configs()
	key := batch.Key{
		Platform:  p.Name,
		App:       tr.App,
		TraceSeed: tr.Seed,
		Scheduler: name,
		Variant:   store.Fingerprint(p, tr),
	}
	var run func() (*engine.Result, error)
	switch name {
	case Interactive, Ondemand, EBS:
		run = func() (*engine.Result, error) {
			evs, err := store.Runtime(tr)
			if err != nil {
				return nil, err
			}
			var pol sched.ReactivePolicy
			switch name {
			case Interactive:
				pol = sched.NewInteractive(p)
			case Ondemand:
				pol = sched.NewOndemand(p)
			default:
				pol = sched.NewEBS(p)
			}
			return engine.RunReactive(p, tr.App, evs, pol), nil
		}
	case Oracle:
		ov := s.OracleVersion.OrDefault()
		if !ov.Valid() {
			return batch.Session{}, fmt.Errorf("sessions: invalid oracle version %d", ov)
		}
		key.Variant += fmt.Sprintf(",oracle=%s", ov)
		run = func() (*engine.Result, error) {
			evs, err := store.Runtime(tr)
			if err != nil {
				return nil, err
			}
			return engine.RunProactive(p, tr.App, evs, sched.NewOracleWithVersion(p, evs, ov)), nil
		}
	case PES:
		if s.Learner == nil {
			return batch.Session{}, fmt.Errorf("sessions: PES requires a trained learner")
		}
		spec, err := webapp.ByName(tr.App)
		if err != nil {
			return batch.Session{}, err
		}
		learner, predCfg := s.Learner, s.Predictor
		key.Predictor = predictorKey(predCfg)
		// PES results depend on the trained model; fingerprint the model
		// content so sessions built from different trainings never share a
		// cache slot, while identically-trained models — in this process or
		// a restarted one addressing a persistent store — share exactly one.
		key.Variant += fmt.Sprintf(",learner=%s", learnerFingerprint(learner))
		run = func() (*engine.Result, error) {
			evs, err := store.Runtime(tr)
			if err != nil {
				return nil, err
			}
			pes := core.NewPES(p, learner, spec, tr.DOMSeed, predCfg)
			return engine.RunProactive(p, tr.App, evs, pes), nil
		}
	}
	return batch.Session{Key: key, Run: run}, nil
}
