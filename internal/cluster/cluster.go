// Package cluster is the multi-process execution layer: a coordinator that
// expands a campaign's sessions into per-worker shards, routes each shard to
// a worker by consistent hashing on the batch memo key, executes shards over
// an HTTP transport, and merges the per-session results back in campaign
// order — byte-identical to single-process execution.
//
// The design leans on two properties the lower layers already guarantee:
//
//   - Determinism. A session is fully described by (platform, app, trace
//     seed, scheduler, predictor config): trace generation, predictor
//     training, and the simulation itself are deterministic, so a worker
//     that rebuilds the session from this description produces the same
//     Result bytes the coordinator's own process would have (workers must
//     run the same harness configuration — training scale and seed — which
//     cmd/pes-serve enforces by sharing one flag set).
//   - Keyed caching. Routing hashes the same tuple the batch memo cache is
//     keyed by, so a given session always lands on the same worker; repeat
//     campaigns hit that worker's warm memo cache, and sessions of one
//     (app, seed) pair cluster on few workers, keeping each worker's
//     artifact cache (traces, runtime events, fingerprints) warm too.
//
// The cluster is elastic. Membership is dynamic: Config.Workers only seeds
// the set, workers join and leave at runtime through Register/Deregister,
// and every member is health-checked against its /healthz endpoint; the
// consistent ring rebalances live as the healthy set changes. Within a run,
// each worker is fed its ring-owned sessions in bounded chunks, and a
// worker that drains its own queue steals half of the longest remaining
// queue — so one slow shard (the Oracle tail) cannot stall the campaign
// behind an otherwise idle cluster. When no live worker remains, the
// coordinator spills the remaining sessions over to a local in-process
// worker instead of failing the campaign.
//
// Failures are split by fault domain, because the two kinds must be treated
// oppositely:
//
//   - Client fault (HTTP 4xx: invalid session spec, oracle-version skew).
//     Deterministic — every worker would reject it identically — so the
//     campaign fails immediately with the rejection and no worker is
//     excluded. Treating these as worker failures would cascade the same
//     rejection across the ring and poison every member for the run.
//   - Worker fault (transport error, 5xx, malformed or short response).
//     The worker is excluded for the rest of the run, marked unhealthy in
//     the membership (probes heal it when it recovers), and its sessions
//     are re-routed across the remaining workers.
//   - Session error (a deterministic simulation error reported by a healthy
//     worker). Not retried — it would fail identically anywhere — and
//     surfaced like the in-process runner's first error, with every other
//     session still completing.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/sched"
)

// SessionSpec is the wire description of one session: the same tuple that
// keys the batch memo cache. A worker rebuilds the full batch session —
// trace, runtime events, scheduler instance — from it; Predictor must be
// fully specified (the campaign layer merges defaults before routing).
type SessionSpec struct {
	Platform  string           `json:"platform"`
	App       string           `json:"app"`
	TraceSeed int64            `json:"trace_seed"`
	Scheduler string           `json:"scheduler"`
	Predictor predictor.Config `json:"predictor"`
	// OracleVersion is the Oracle solver version ("v1"/"v2"), set on Oracle
	// sessions only. It participates in the route key exactly like it
	// participates in the batch memo key, so v1 and v2 sessions never alias
	// on the wire or in a worker's cache.
	OracleVersion string `json:"oracle_version,omitempty"`
}

// RouteKey canonically encodes the memo-key tuple for consistent hashing.
func (s SessionSpec) RouteKey() string {
	var b strings.Builder
	b.WriteString(s.Platform)
	b.WriteByte('|')
	b.WriteString(s.App)
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(s.TraceSeed, 10))
	b.WriteByte('|')
	b.WriteString(s.Scheduler)
	b.WriteByte('|')
	fmt.Fprintf(&b, "ct=%g,deg=%d,dom=%t", s.Predictor.ConfidenceThreshold, s.Predictor.MaxDegree, s.Predictor.UseDOMAnalysis)
	if s.OracleVersion != "" {
		b.WriteString("|oracle=")
		b.WriteString(s.OracleVersion)
	}
	return b.String()
}

// ShardRequest is the body of POST /v1/shards: the sessions routed to one
// worker, plus the coordinator's configured oracle version so
// coordinator/worker harness-flag agreement is validated at shard submit
// instead of surfacing later as a golden diff.
type ShardRequest struct {
	Sessions []SessionSpec `json:"sessions"`
	// OracleVersion is the coordinator process's -oracle flag ("v1"/"v2").
	// A worker whose own flag disagrees rejects the shard with a clear
	// error. Empty (a pre-versioning coordinator) skips the check.
	OracleVersion string `json:"oracle_version,omitempty"`
}

// ShardResponse is a worker's answer: results index-aligned with the
// request's sessions (entries are null for failed sessions), the first
// session error if any, and a snapshot of the worker's cumulative
// runner/artifact counters (how warm its caches are).
type ShardResponse struct {
	Results []*engine.Result `json:"results"`
	Error   string           `json:"error,omitempty"`
	Stats   batch.Stats      `json:"stats"`
	// Spans are the worker-side trace spans for this shard (its simulate
	// wall time), present only when the request carried a trace ID.
	// The coordinator merges them into the campaign's timeline, stamping the
	// worker address the worker itself does not know.
	Spans []obs.Span `json:"spans,omitempty"`
}

// ClientFaultError is a shard rejection that is the campaign's fault — an
// invalid session spec, an oracle-version skew, malformed shard JSON — not
// the worker's. The rejection is deterministic: every worker would answer
// it identically, so the dispatcher fails the campaign immediately and
// excludes nobody instead of cascading the same 4xx across the ring.
type ClientFaultError struct {
	// Worker is the address that rejected the shard.
	Worker string
	// Status is the HTTP status code (4xx).
	Status int
	// Msg is the worker's error message.
	Msg string
}

func (e *ClientFaultError) Error() string {
	return fmt.Sprintf("cluster: worker %s rejected the shard (HTTP %d): %s", e.Worker, e.Status, e.Msg)
}

// IsClientFault reports whether err marks a deterministic client-fault
// shard rejection (see ClientFaultError) anywhere in its chain.
func IsClientFault(err error) bool {
	var cf *ClientFaultError
	return errors.As(err, &cf)
}

// Transport executes one shard on one worker. Implementations must be safe
// for concurrent use. An error return that satisfies IsClientFault fails
// the whole campaign immediately (deterministic rejection, nobody
// excluded); any other error means the worker failed and its sessions are
// re-routed. Transports that also implement Pinger get coordinator health
// probes.
type Transport interface {
	RunShard(ctx context.Context, worker string, req ShardRequest) (ShardResponse, error)
}

// Pinger is the optional health-probe side of a Transport. The coordinator
// heartbeat loop probes every member through it; transports that do not
// implement it (test fakes) skip health checking entirely.
type Pinger interface {
	Ping(ctx context.Context, worker string) error
}

// Stats snapshots a coordinator's counters.
type Stats struct {
	// Workers is the current healthy member count.
	Workers int `json:"workers"`
	// Members lists every member (healthy or not) with its source.
	Members []Member `json:"members,omitempty"`
	// Shards counts shard dispatches (including re-dispatches after a
	// worker failure); SessionsRouted counts the sessions inside them.
	Shards         int64 `json:"shards"`
	SessionsRouted int64 `json:"sessions_routed"`
	// Retries counts redistribution events after a worker failure;
	// WorkerFailures counts the failed dispatches that caused them.
	Retries        int64 `json:"retries"`
	WorkerFailures int64 `json:"worker_failures"`
	// Steals counts dispatches an idle worker stole from the longest
	// remaining queue; SessionsStolen counts the sessions inside them.
	Steals         int64 `json:"steals"`
	SessionsStolen int64 `json:"sessions_stolen"`
	// SpillOvers counts the times sessions fell back to local in-process
	// execution because no live worker remained; SessionsSpilled counts the
	// sessions executed that way. Local executions are not counted in
	// Shards/SessionsRouted.
	SpillOvers      int64 `json:"spill_overs"`
	SessionsSpilled int64 `json:"sessions_spilled"`
	// ClientFaults counts campaigns rejected for a deterministic client
	// fault (4xx): the campaign fails, no worker is excluded.
	ClientFaults int64 `json:"client_faults"`
	// ProbesSkipped counts health probes suppressed because the member's
	// failure backoff window had not elapsed (flap damping at work).
	ProbesSkipped int64 `json:"probes_skipped"`
	// Remote sums the latest runner-stats snapshot reported by each
	// currently healthy member: cache hits here are sessions a worker
	// served from its warm memo cache. Snapshots of excluded, unhealthy, or
	// departed members are dropped, not summed — a dead worker's stale
	// counters must not inflate the cluster's cache totals.
	Remote batch.Stats `json:"remote"`
}

// Config parameterizes a coordinator.
type Config struct {
	// Workers statically seeds the membership ("host:port" or a full URL
	// per entry). It may be empty: workers can join at runtime through
	// Register (the -coordinator flag on pes-serve workers).
	Workers []string
	// Transport overrides the shard transport; nil selects HTTP.
	Transport Transport
	// Replicas is the number of virtual nodes per worker on the hash ring
	// (default 64).
	Replicas int
	// ShardTimeout bounds one shard execution (default 10 minutes). A
	// shard that exceeds it counts as a worker failure — the worker is
	// excluded and the shard re-routed — so size it above the largest
	// expected chunk's cold (cache-miss) run time.
	ShardTimeout time.Duration
	// OracleVersion is this coordinator process's oracle version (zero
	// value = default). It is stamped on every shard request; workers whose
	// own -oracle flag disagrees reject the shard.
	OracleVersion sched.OracleVersion
	// MaxShardSessions caps the sessions per dispatched chunk (default 16).
	// A worker is fed its queue in chunks of up to this cap; smaller chunks
	// leave more queue behind for idle workers to steal and shrink the work
	// lost to a worker fault, larger chunks amortize transport overhead and
	// preserve session→worker cache affinity.
	MaxShardSessions int
	// HeartbeatInterval is the period of the membership health-check loop
	// (default 3s; negative disables). Probes run only when the transport
	// implements Pinger.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout bounds one health probe (default 2s).
	HeartbeatTimeout time.Duration
	// HeartbeatFailures is the number of consecutive failed probes that
	// mark a member unhealthy (default 3). A single passing probe heals it.
	HeartbeatFailures int
	// RetryBudget caps worker-fault re-route events per campaign (default
	// 16). Re-routing is immediate and cheap, but unbounded: a pathological
	// fleet (every worker flapping) could otherwise bounce the same
	// sessions around the ring forever. Exhausting the budget fails the
	// campaign with the last worker error attached.
	RetryBudget int
	// ProbeBackoffBase is the first re-probe delay charged to a member
	// after a failure (default 1s). Each further consecutive failure —
	// dispatch fault or probe — doubles it with jitter, up to
	// ProbeBackoffMax (default 60s), so a flapping worker is re-routed away
	// from immediately but re-probed lazily instead of hammered. A passing
	// probe or a re-registration clears the backoff.
	ProbeBackoffBase time.Duration
	ProbeBackoffMax  time.Duration
	// Logger receives the coordinator's structured events (membership
	// transitions, worker faults, steals); nil selects slog.Default().
	Logger *slog.Logger
}

// Coordinator routes sessions to workers and merges their results. Safe for
// concurrent use; one coordinator serves every campaign of a server. Close
// stops the health-check loop.
type Coordinator struct {
	cfg       Config
	transport Transport
	members   *membership
	log       *slog.Logger

	// shardLatency is the round-trip histogram set by RegisterMetrics at
	// wiring time (nil when telemetry is unwired; observations are nil-safe).
	shardLatency *obs.Histogram

	shards          atomic.Int64
	sessionsRouted  atomic.Int64
	retries         atomic.Int64
	workerFailures  atomic.Int64
	steals          atomic.Int64
	sessionsStolen  atomic.Int64
	spillOvers      atomic.Int64
	sessionsSpilled atomic.Int64
	clientFaults    atomic.Int64
	probesSkipped   atomic.Int64

	mu          sync.Mutex
	local       *Worker
	workerStats map[string]batch.Stats // latest snapshot per worker

	hbStop    chan struct{}
	hbDone    chan struct{}
	closeOnce sync.Once
}

// New builds a coordinator. The static worker seed may be empty — workers
// can join later through Register — in which case campaigns spill over to
// the local worker until the first member joins.
func New(cfg Config) (*Coordinator, error) {
	if err := validateSeed(cfg.Workers); err != nil {
		return nil, err
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 64
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 10 * time.Minute
	}
	if cfg.MaxShardSessions <= 0 {
		cfg.MaxShardSessions = 16
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 3 * time.Second
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 2 * time.Second
	}
	if cfg.HeartbeatFailures <= 0 {
		cfg.HeartbeatFailures = 3
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 16
	}
	if cfg.ProbeBackoffBase <= 0 {
		cfg.ProbeBackoffBase = time.Second
	}
	if cfg.ProbeBackoffMax < cfg.ProbeBackoffBase {
		cfg.ProbeBackoffMax = time.Minute
	}
	t := cfg.Transport
	if t == nil {
		t = NewHTTPTransport()
	}
	members := newMembership(cfg.Workers, cfg.Replicas)
	members.backoffBase = cfg.ProbeBackoffBase
	members.backoffMax = cfg.ProbeBackoffMax
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	c := &Coordinator{
		cfg:         cfg,
		transport:   t,
		members:     members,
		log:         logger,
		workerStats: make(map[string]batch.Stats),
		hbStop:      make(chan struct{}),
		hbDone:      make(chan struct{}),
	}
	if p, ok := t.(Pinger); ok && cfg.HeartbeatInterval > 0 {
		go c.heartbeat(p)
	} else {
		close(c.hbDone)
	}
	return c, nil
}

// Close stops the membership health-check loop. Idempotent; in-flight runs
// are unaffected (they finish on the membership as last probed).
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.hbStop) })
	<-c.hbDone
}

// heartbeat probes every member's /healthz on a fixed period, healing
// members whose probes pass and marking members unhealthy after
// HeartbeatFailures consecutive failures. Membership changes rebuild the
// ring and wake in-flight runs.
func (c *Coordinator) heartbeat(p Pinger) {
	defer close(c.hbDone)
	ticker := time.NewTicker(c.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-ticker.C:
		}
		due, skipped := c.members.probeTargets(time.Now())
		c.probesSkipped.Add(int64(skipped))
		for _, addr := range due {
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HeartbeatTimeout)
			err := p.Ping(ctx, addr)
			cancel()
			if err != nil {
				if c.members.probe(addr, false, c.cfg.HeartbeatFailures) {
					c.dropStats(addr)
					c.log.Warn("cluster member unhealthy", "worker", addr, "cause", "probe", "error", err)
				}
			} else if c.members.probe(addr, true, c.cfg.HeartbeatFailures) {
				c.log.Info("cluster member healed", "worker", addr)
			}
		}
	}
}

// Register adds a worker to the live membership (or heals an existing
// member). The ring rebalances immediately and in-flight campaigns start
// stealing work for the new member.
func (c *Coordinator) Register(addr string) error {
	addr = strings.TrimSpace(addr)
	if addr == "" {
		return fmt.Errorf("cluster: empty worker address")
	}
	if c.members.register(addr, SourceRegistered) {
		c.log.Info("cluster member registered", "worker", addr)
	}
	return nil
}

// Deregister removes a worker from the membership entirely and drops its
// stats snapshot; reports whether the worker was a member. In-flight
// dispatches to it are not interrupted (their failure, if any, is handled
// like any worker fault).
func (c *Coordinator) Deregister(addr string) bool {
	if !c.members.deregister(addr) {
		return false
	}
	c.dropStats(addr)
	c.log.Info("cluster member deregistered", "worker", addr)
	return true
}

// Members returns a snapshot (copies) of every member's state.
func (c *Coordinator) Members() []Member { return c.members.snapshot() }

// Workers returns a copy of the current member addresses, sorted. Mutating
// the returned slice does not affect routing.
func (c *Coordinator) Workers() []string { return c.members.addrs() }

// SetLocal installs the in-process spill-over worker: when the live worker
// set empties (none configured yet, or every member failed), remaining
// sessions execute on it instead of failing the campaign. server.New wires
// the service's own harness here.
func (c *Coordinator) SetLocal(w *Worker) {
	c.mu.Lock()
	c.local = w
	c.mu.Unlock()
}

func (c *Coordinator) localWorker() *Worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.local
}

// noteWorkerFault marks a member unhealthy after a dispatch-level failure
// and drops its stats snapshot.
func (c *Coordinator) noteWorkerFault(addr string) {
	c.members.fault(addr)
	c.dropStats(addr)
}

func (c *Coordinator) setWorkerStats(addr string, st batch.Stats) {
	c.mu.Lock()
	c.workerStats[addr] = st
	c.mu.Unlock()
}

func (c *Coordinator) dropStats(addr string) {
	c.mu.Lock()
	delete(c.workerStats, addr)
	c.mu.Unlock()
}

// Stats returns a snapshot of the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	members := c.members.snapshot()
	st := Stats{
		Members:         members,
		Shards:          c.shards.Load(),
		SessionsRouted:  c.sessionsRouted.Load(),
		Retries:         c.retries.Load(),
		WorkerFailures:  c.workerFailures.Load(),
		Steals:          c.steals.Load(),
		SessionsStolen:  c.sessionsStolen.Load(),
		SpillOvers:      c.spillOvers.Load(),
		SessionsSpilled: c.sessionsSpilled.Load(),
		ClientFaults:    c.clientFaults.Load(),
		ProbesSkipped:   c.probesSkipped.Load(),
	}
	healthy := make(map[string]bool, len(members))
	for _, m := range members {
		if m.Healthy {
			healthy[m.Addr] = true
			st.Workers++
		}
	}
	c.mu.Lock()
	for addr, ws := range c.workerStats {
		if !healthy[addr] {
			// Excluded or departed members' last snapshots must not inflate
			// the live totals.
			continue
		}
		st.Remote.Sessions += ws.Sessions
		st.Remote.UniqueRuns += ws.UniqueRuns
		st.Remote.CacheHits += ws.CacheHits
		st.Remote.CacheEntries += ws.CacheEntries
		st.Remote.CacheEvictions += ws.CacheEvictions
		st.Remote.StoreHits += ws.StoreHits
		st.Remote.Solver = st.Remote.Solver.Add(ws.Solver)
	}
	c.mu.Unlock()
	return st
}

// run is the in-flight state of one Coordinator.Run call: per-member work
// queues fed in bounded chunks, a runner goroutine per member that steals
// from the longest queue when its own drains, and a local spill-over lane
// for sessions no live member can take.
type run struct {
	c     *Coordinator
	specs []SessionSpec
	out   []*engine.Result
	total int

	ctx    context.Context
	cancel context.CancelFunc
	// trace is the campaign's span recorder, taken from the caller's context
	// (nil when untraced — all recording is nil-safe).
	trace *obs.Recorder

	progressMu sync.Mutex // serializes progress calls
	progress   func(completed, total int)
	completed  int

	mu            sync.Mutex
	cond          *sync.Cond
	queues        map[string][]int // pending original indices per member
	localQueue    []int
	runners       map[string]bool
	localOn       bool
	excluded      map[string]bool // members failed this run
	inflight      int
	resolved      int
	retriesUsed   int // worker-fault re-routes charged against RetryBudget
	done          bool
	fatalErr      error
	sessErr       error
	lastWorkerErr error
	wg            sync.WaitGroup
}

// Run executes the sessions across the cluster and returns the results
// index-aligned with the input — the same contract as the in-process batch
// runner: on a session error the first error is returned and the
// corresponding entries are nil, while every other session still completes.
// progress (may be nil) is called once per resolved session, one call at a
// time, with strictly increasing completed counts.
//
// A worker fault excludes that worker for the rest of the run and re-routes
// its sessions; a client fault (deterministic 4xx rejection) fails the
// campaign immediately and excludes nobody; when no live worker remains the
// remaining sessions spill over to the local worker, and Run fails only
// when none is configured.
func (c *Coordinator) Run(specs []SessionSpec, progress func(completed, total int)) ([]*engine.Result, error) {
	return c.RunContext(context.Background(), specs, progress)
}

// RunContext is Run carrying a context: a trace recorder attached with
// obs.WithTrace collects dispatch/steal/spill spans (and the worker-side
// spans returned in shard responses), the trace ID propagates to workers in
// the X-Pes-Trace-Id header, and cancelling ctx aborts the run with ctx's
// error: in-flight remote shards are abandoned (workers complete them into
// their own caches) and the local lane stops between sessions.
func (c *Coordinator) RunContext(ctx context.Context, specs []SessionSpec, progress func(completed, total int)) ([]*engine.Result, error) {
	out := make([]*engine.Result, len(specs))
	if len(specs) == 0 {
		return out, nil
	}
	r := &run{
		c:        c,
		specs:    specs,
		out:      out,
		total:    len(specs),
		trace:    obs.TraceFrom(ctx),
		progress: progress,
		queues:   make(map[string][]int),
		runners:  make(map[string]bool),
		excluded: make(map[string]bool),
	}
	r.cond = sync.NewCond(&r.mu)
	r.ctx, r.cancel = context.WithCancel(ctx)
	defer r.cancel()
	// A parent-context cancellation must wake the completion wait below,
	// which otherwise only the runners' broadcasts do.
	stopWatch := context.AfterFunc(ctx, func() {
		r.mu.Lock()
		if r.fatalErr == nil {
			r.fatalErr = ctx.Err()
		}
		r.cancel()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer stopWatch()

	all := make([]int, len(specs))
	for i := range all {
		all[i] = i
	}
	r.mu.Lock()
	r.assignLocked(all)
	// Idle members get runners too, so they can steal immediately.
	for _, addr := range c.members.healthy() {
		r.ensureRunnerLocked(addr)
	}
	r.mu.Unlock()

	go r.watchMembership()

	r.mu.Lock()
	for r.fatalErr == nil && r.resolved < r.total {
		r.cond.Wait()
	}
	r.done = true
	err := r.fatalErr
	r.cancel()
	r.cond.Broadcast()
	r.mu.Unlock()

	r.wg.Wait()
	if err != nil {
		return out, err
	}
	r.mu.Lock()
	sessErr := r.sessErr
	r.mu.Unlock()
	return out, sessErr
}

// note reports n resolved sessions to the progress callback (outside r.mu —
// the callback may call back into the coordinator). Lanes note concurrently;
// progressMu keeps the counts the callback sees strictly increasing.
func (r *run) note(n int) {
	if r.progress == nil {
		return
	}
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	for i := 0; i < n; i++ {
		r.completed++
		r.progress(r.completed, r.total)
	}
}

// assignLocked routes indices to the healthy, non-excluded members by ring
// ownership, spilling to the local lane those no member can take. Caller
// holds r.mu.
func (r *run) assignLocked(indices []int) {
	var spill []int
	for _, i := range indices {
		addr, ok := r.c.members.owner(r.specs[i].RouteKey(), r.excluded)
		if !ok {
			spill = append(spill, i)
			continue
		}
		r.queues[addr] = append(r.queues[addr], i)
		r.ensureRunnerLocked(addr)
	}
	if len(spill) > 0 {
		r.spillLocked(spill)
	}
	r.cond.Broadcast()
}

// spillLocked hands indices to the local in-process worker — the graceful
// degradation path when the live worker set is empty. Caller holds r.mu.
func (r *run) spillLocked(indices []int) {
	if r.c.localWorker() == nil {
		if r.fatalErr == nil {
			if r.lastWorkerErr != nil {
				r.fatalErr = fmt.Errorf("cluster: no live workers remain and no local spill-over is configured (last worker error: %w)", r.lastWorkerErr)
			} else {
				r.fatalErr = fmt.Errorf("cluster: no live workers and no local spill-over configured")
			}
			r.cancel()
		}
		return
	}
	r.localQueue = append(r.localQueue, indices...)
	r.c.spillOvers.Add(1)
	r.c.sessionsSpilled.Add(int64(len(indices)))
	if !r.localOn {
		r.localOn = true
		r.wg.Add(1)
		go r.localRunner()
	}
}

// ensureRunnerLocked starts the member's runner goroutine once. Caller
// holds r.mu.
func (r *run) ensureRunnerLocked(addr string) {
	if r.runners[addr] || r.excluded[addr] || r.done || r.fatalErr != nil {
		return
	}
	r.runners[addr] = true
	r.wg.Add(1)
	go r.runner(addr)
}

// watchMembership starts runners for members that join mid-run, so a fresh
// worker immediately begins stealing queued work.
func (r *run) watchMembership() {
	for {
		ch := r.c.members.watchCh()
		r.mu.Lock()
		if r.done || r.fatalErr != nil {
			r.mu.Unlock()
			return
		}
		for _, addr := range r.c.members.healthy() {
			r.ensureRunnerLocked(addr)
		}
		r.mu.Unlock()
		select {
		case <-r.ctx.Done():
			return
		case <-ch:
		}
	}
}

// chunkLocked takes the member's next dispatch: its own queue from the head
// (up to the chunk cap), or — when its queue is empty — half of the longest
// other queue from the tail (a steal). Own-queue chunks take everything up
// to the cap rather than a fraction, so a balanced cluster dispatches each
// member's sessions in one shard and steals nothing: session→worker
// affinity (and the warm memo caches it buys on repeat campaigns) is only
// traded away when a queue actually outlives an idle worker. Caller holds
// r.mu.
func (r *run) chunkLocked(addr string) (indices []int, stolen bool) {
	limit := r.c.cfg.MaxShardSessions
	if q := r.queues[addr]; len(q) > 0 {
		n := len(q)
		if n > limit {
			n = limit
		}
		indices = append([]int(nil), q[:n]...)
		r.queues[addr] = q[n:]
		return indices, false
	}
	victim, longest := "", 0
	for a, q := range r.queues {
		if a != addr && len(q) > longest {
			victim, longest = a, len(q)
		}
	}
	if victim == "" {
		return nil, false
	}
	n := (longest + 1) / 2
	if n > limit {
		n = limit
	}
	q := r.queues[victim]
	indices = append([]int(nil), q[len(q)-n:]...)
	r.queues[victim] = q[:len(q)-n]
	return indices, true
}

// runner is one member's dispatch loop: chunks of its own queue, then
// steals, until the run completes, a fatal error lands, or the member
// fails.
func (r *run) runner(addr string) {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		var chunk []int
		var stolen bool
		for {
			if r.done || r.fatalErr != nil || r.excluded[addr] {
				r.mu.Unlock()
				return
			}
			chunk, stolen = r.chunkLocked(addr)
			if chunk != nil {
				break
			}
			r.cond.Wait()
		}
		r.inflight++
		r.mu.Unlock()

		spanName := "dispatch"
		if stolen {
			r.c.steals.Add(1)
			r.c.sessionsStolen.Add(int64(len(chunk)))
			spanName = "steal"
			r.c.log.Debug("cluster steal", "worker", addr, "sessions", len(chunk), "trace", r.trace.TraceID())
		}
		r.c.shards.Add(1)
		r.c.sessionsRouted.Add(int64(len(chunk)))
		req := ShardRequest{
			Sessions:      make([]SessionSpec, len(chunk)),
			OracleVersion: r.c.cfg.OracleVersion.OrDefault().String(),
		}
		for k, i := range chunk {
			req.Sessions[k] = r.specs[i]
		}
		start := time.Now()
		ctx, cancel := context.WithTimeout(r.ctx, r.c.cfg.ShardTimeout)
		resp, err := r.c.transport.RunShard(ctx, addr, req)
		cancel()
		rtt := time.Since(start)
		if err == nil && len(resp.Results) != len(chunk) {
			err = fmt.Errorf("cluster: worker %s returned %d results for %d sessions", addr, len(resp.Results), len(chunk))
		}
		if err == nil {
			r.c.shardLatency.ObserveSeconds(int64(rtt))
			r.trace.Record(obs.Span{
				Name: spanName, Worker: addr, Sessions: len(chunk),
				StartUS: start.UnixMicro(), DurUS: rtt.Microseconds(),
			})
			for i := range resp.Spans {
				if resp.Spans[i].Worker == "" {
					resp.Spans[i].Worker = addr
				}
			}
			r.trace.Merge(resp.Spans)
		}

		r.mu.Lock()
		r.inflight--
		if err != nil {
			if r.ctx.Err() != nil {
				// The run is over (done or fatal); the abort is ours.
				r.cond.Broadcast()
				r.mu.Unlock()
				return
			}
			if IsClientFault(err) {
				// Deterministic rejection: every worker answers identically.
				// Fail the campaign now and exclude nobody — re-routing
				// would only cascade the same 4xx around the ring.
				r.c.clientFaults.Add(1)
				r.c.log.Warn("cluster client fault",
					"worker", addr, "trace", r.trace.TraceID(), "error", err)
				if r.fatalErr == nil {
					r.fatalErr = err
				}
				r.cancel()
				r.cond.Broadcast()
				r.mu.Unlock()
				return
			}
			// Worker fault: exclude it for the run, mark it unhealthy, and
			// re-route everything it still held — unless this campaign has
			// exhausted its retry budget, in which case it fails now instead
			// of bouncing the same sessions around a flapping fleet forever.
			r.c.workerFailures.Add(1)
			r.c.retries.Add(1)
			r.c.noteWorkerFault(addr)
			r.c.log.Warn("cluster worker fault",
				"worker", addr, "sessions", len(chunk), "trace", r.trace.TraceID(), "error", err)
			r.lastWorkerErr = err
			r.excluded[addr] = true
			r.retriesUsed++
			if r.retriesUsed > r.c.cfg.RetryBudget {
				if r.fatalErr == nil {
					r.fatalErr = fmt.Errorf("cluster: campaign retry budget exhausted (%d worker faults > budget %d; last: %w)",
						r.retriesUsed, r.c.cfg.RetryBudget, err)
				}
				r.cancel()
				r.cond.Broadcast()
				r.mu.Unlock()
				return
			}
			requeue := append(chunk, r.queues[addr]...)
			delete(r.queues, addr)
			r.assignLocked(requeue)
			r.cond.Broadcast()
			r.mu.Unlock()
			return
		}
		for k, i := range chunk {
			r.out[i] = resp.Results[k]
		}
		if resp.Error != "" && r.sessErr == nil {
			r.sessErr = fmt.Errorf("cluster: worker %s: %s", addr, resp.Error)
		}
		r.resolved += len(chunk)
		r.c.setWorkerStats(addr, resp.Stats)
		r.cond.Broadcast()
		r.mu.Unlock()
		r.note(len(chunk))
	}
}

// localRunner drains the spill-over lane on the coordinator's own
// in-process worker. Local execution shares the service's harness, so its
// results are byte-identical to a remote worker's; a local rejection is a
// deterministic spec error and fails the campaign like a client fault. The
// lane runs under the run's context, so cancelling the run stops it between
// sessions, and it reports progress per session rather than per chunk.
func (r *run) localRunner() {
	defer r.wg.Done()
	w := r.c.localWorker()
	for {
		r.mu.Lock()
		var chunk []int
		for {
			if r.done || r.fatalErr != nil {
				r.mu.Unlock()
				return
			}
			if len(r.localQueue) > 0 {
				chunk = r.localQueue
				r.localQueue = nil
				break
			}
			r.cond.Wait()
		}
		r.mu.Unlock()

		req := ShardRequest{
			Sessions:      make([]SessionSpec, len(chunk)),
			OracleVersion: r.c.cfg.OracleVersion.OrDefault().String(),
		}
		for k, i := range chunk {
			req.Sessions[k] = r.specs[i]
		}
		start := time.Now()
		resp, err := w.runShard(r.ctx, r.trace.TraceID(), req, func(int, int) { r.note(1) })
		if err == nil {
			r.trace.Record(obs.Span{
				Name: "spill", Worker: "local", Sessions: len(chunk),
				StartUS: start.UnixMicro(), DurUS: time.Since(start).Microseconds(),
			})
			for i := range resp.Spans {
				if resp.Spans[i].Worker == "" {
					resp.Spans[i].Worker = "local"
				}
			}
			r.trace.Merge(resp.Spans)
		}

		r.mu.Lock()
		if r.ctx.Err() != nil {
			// The run is over (done or fatal); a cut-short shard is ours.
			r.cond.Broadcast()
			r.mu.Unlock()
			return
		}
		if err != nil {
			r.c.clientFaults.Add(1)
			if r.fatalErr == nil {
				r.fatalErr = fmt.Errorf("cluster: local spill-over: %w", err)
			}
			r.cancel()
			r.cond.Broadcast()
			r.mu.Unlock()
			return
		}
		for k, i := range chunk {
			r.out[i] = resp.Results[k]
		}
		if resp.Error != "" && r.sessErr == nil {
			r.sessErr = fmt.Errorf("cluster: local spill-over: %s", resp.Error)
		}
		r.resolved += len(chunk)
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

// httpTransport POSTs shards to workers over HTTP and probes their
// /healthz.
type httpTransport struct {
	client *http.Client
}

// NewHTTPTransport returns the production HTTP shard transport — the one a
// nil Config.Transport selects. Exported so wrappers (internal/chaos) can
// interpose on the real transport instead of a test fake.
func NewHTTPTransport() Transport {
	return &httpTransport{client: &http.Client{}}
}

// workerURL normalizes a worker address to a base URL.
func workerURL(w string) string {
	if strings.Contains(w, "://") {
		return strings.TrimRight(w, "/")
	}
	return "http://" + w
}

func (t *httpTransport) RunShard(ctx context.Context, worker string, req ShardRequest) (ShardResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return ShardResponse{}, fmt.Errorf("cluster: encoding shard: %w", err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, workerURL(worker)+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		return ShardResponse{}, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if id := obs.TraceIDFrom(ctx); id != "" {
		httpReq.Header.Set(obs.TraceHeader, id)
	}
	httpResp, err := t.client.Do(httpReq)
	if err != nil {
		return ShardResponse{}, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		msg := strings.TrimSpace(string(raw))
		var se shardError
		if json.Unmarshal(raw, &se) == nil && se.Error != "" {
			msg = se.Error
		}
		if httpResp.StatusCode >= 400 && httpResp.StatusCode < 500 {
			// The worker deliberately rejected the shard: the campaign's
			// fault (bad spec, version skew), not the worker's.
			return ShardResponse{}, &ClientFaultError{Worker: worker, Status: httpResp.StatusCode, Msg: msg}
		}
		return ShardResponse{}, fmt.Errorf("cluster: worker %s returned %d: %s", worker, httpResp.StatusCode, msg)
	}
	var resp ShardResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return ShardResponse{}, fmt.Errorf("cluster: decoding worker %s response: %w", worker, err)
	}
	return resp, nil
}

// Ping satisfies Pinger: a member is healthy while its /healthz answers 200.
func (t *httpTransport) Ping(ctx context.Context, worker string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, workerURL(worker)+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: worker %s health probe returned %d", worker, resp.StatusCode)
	}
	return nil
}
