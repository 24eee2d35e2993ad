package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/acmp"
	"repro/internal/batch"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sessions"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// Worker executes shards on one process's harness: its own trained learner,
// artifact store, and memoizing batch runner. Because every layer below is
// deterministic, a worker configured like the coordinator (same training
// scale and seed) produces byte-identical results to in-process execution —
// and because routing is consistent, repeat campaigns hit its warm caches.
type Worker struct {
	setup *experiments.Setup
}

// NewWorker trains the worker's harness (predictor, corpus, runner) from
// the configuration. Workers of one cluster must share the coordinator's
// configuration for results to merge byte-identically.
func NewWorker(cfg experiments.Config) (*Worker, error) {
	setup, err := experiments.NewSetup(cfg)
	if err != nil {
		return nil, err
	}
	return &Worker{setup: setup}, nil
}

// NewWorkerFromSetup wraps an existing harness setup (tests share one setup
// between a worker and a direct runner).
func NewWorkerFromSetup(setup *experiments.Setup) *Worker {
	return &Worker{setup: setup}
}

// Setup exposes the worker's harness state.
func (w *Worker) Setup() *experiments.Setup { return w.setup }

// Stats snapshots the worker's runner/artifact counters.
func (w *Worker) Stats() batch.Stats { return w.setup.Runner.Stats() }

// Build turns a wire spec into a self-contained batch session on a harness
// setup: the trace comes from the setup's artifact store, the learner is its
// trained model, and the predictor configuration is taken verbatim from the
// spec. It is the only spec → session constructor: workers build their
// shards with it and Campaign.Expand builds direct-run plans with it, so a
// session means the same thing on every path.
func (s SessionSpec) Build(setup *experiments.Setup) (batch.Session, error) {
	platform, err := acmp.ByName(s.Platform)
	if err != nil {
		return batch.Session{}, err
	}
	app, err := webapp.ByName(s.App)
	if err != nil {
		return batch.Session{}, err
	}
	ov, err := sched.ParseOracleVersion(s.OracleVersion)
	if err != nil {
		return batch.Session{}, err
	}
	// The artifact store generates each (app, seed) trace exactly once per
	// process, no matter how many schedulers, sweep points, or overlapping
	// campaigns replay it.
	tr := setup.Artifacts.Trace(app, s.TraceSeed, trace.PurposeEval, trace.Options{})
	return sessions.New(sessions.Spec{
		Platform:      platform,
		Trace:         tr,
		Scheduler:     s.Scheduler,
		Learner:       setup.Learner,
		Predictor:     s.Predictor,
		Artifacts:     setup.Artifacts,
		OracleVersion: ov,
	})
}

// RunShard executes one shard on the worker's runner. Invalid specs are the
// caller's fault (the HTTP layer answers 400); a session simulation error
// is reported in the response like the batch runner's first error, with the
// remaining sessions still completing. ctx is checked between sessions: a
// cancelled shard stops early and reports ctx's error in the response. A
// non-empty traceID (from the X-Pes-Trace-Id header, or the coordinator's
// recorder on the local lane) makes the response carry the shard's simulate
// span for the coordinator to merge into the campaign timeline.
func (w *Worker) RunShard(ctx context.Context, traceID string, req ShardRequest) (ShardResponse, error) {
	return w.runShard(ctx, traceID, req, nil)
}

// runShard is RunShard reporting each resolved session to progress (may be
// nil), so the coordinator's local lane advances campaign progress per
// session rather than per shard.
func (w *Worker) runShard(ctx context.Context, traceID string, req ShardRequest, progress func(completed, total int)) (ShardResponse, error) {
	if len(req.Sessions) == 0 {
		return ShardResponse{}, fmt.Errorf("shard contains no sessions")
	}
	if req.OracleVersion != "" {
		theirs, err := sched.ParseOracleVersion(req.OracleVersion)
		if err != nil {
			return ShardResponse{}, fmt.Errorf("shard oracle version: %w", err)
		}
		if mine := w.setup.Config.OracleVersion.OrDefault(); theirs != mine {
			return ShardResponse{}, fmt.Errorf(
				"oracle version mismatch: coordinator submits %s shards but this worker runs %s; restart with matching -oracle flags",
				theirs, mine)
		}
	}
	sess := make([]batch.Session, len(req.Sessions))
	for i, spec := range req.Sessions {
		var err error
		if sess[i], err = spec.Build(w.setup); err != nil {
			return ShardResponse{}, fmt.Errorf("session %d: %w", i, err)
		}
	}
	start := time.Now()
	results, runErr := w.setup.Runner.RunContext(ctx, sess, progress)
	elapsed := time.Since(start)
	resp := ShardResponse{Results: results, Stats: w.Stats()}
	if traceID != "" {
		resp.Spans = []obs.Span{{TraceID: traceID, Name: "simulate", Sessions: len(req.Sessions),
			StartUS: start.UnixMicro(), DurUS: elapsed.Microseconds()}}
	}
	if runErr != nil {
		resp.Error = runErr.Error()
	}
	return resp, nil
}

// workerHealth is the body of a worker's GET /healthz.
type workerHealth struct {
	Status string      `json:"status"`
	Role   string      `json:"role"`
	Stats  batch.Stats `json:"stats"`
	// Workers is the worker's simulation worker-pool size.
	Workers int `json:"workers"`
}

// Handler returns the worker HTTP API:
//
//	POST /v1/shards  execute a shard of sessions, return merged-ready results
//	GET  /healthz    liveness + cache counters
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shards", w.handleShard)
	mux.HandleFunc("GET /healthz", w.handleHealth)
	return mux
}

// shardError is the JSON error body of a failed shard request.
type shardError struct {
	Error string `json:"error"`
}

func (w *Worker) writeJSON(rw http.ResponseWriter, code int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	_ = json.NewEncoder(rw).Encode(v)
}

func (w *Worker) handleShard(rw http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		w.writeJSON(rw, http.StatusBadRequest, shardError{Error: "invalid shard JSON: " + err.Error()})
		return
	}
	// Background, not the request's context: a shard the coordinator
	// abandons (drain, timeout) still finishes into this worker's caches.
	resp, err := w.RunShard(context.Background(), r.Header.Get(obs.TraceHeader), req)
	if err != nil {
		w.writeJSON(rw, http.StatusBadRequest, shardError{Error: err.Error()})
		return
	}
	w.writeJSON(rw, http.StatusOK, resp)
}

func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	w.writeJSON(rw, http.StatusOK, workerHealth{
		Status:  "ok",
		Role:    "worker",
		Stats:   w.Stats(),
		Workers: w.setup.Runner.Workers(),
	})
}
