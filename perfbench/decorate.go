package main

import (
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acmp"
	"repro/internal/cluster"
	"repro/internal/optimizer"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/webevent"
)

// policyClock accumulates the wall time one session spends inside its
// scheduler's policy calls. A session runs on one goroutine, so plain
// fields suffice.
type policyClock struct {
	planNS, otherNS int64
	planCalls       int64
}

// timedProactive wraps a proactive policy (PES or the Oracle) and times
// every call into it: Plan separately, everything else together. It also
// forwards sched.SolverStatsProvider — without that the engine would see a
// policy with no solver and every Result.Solver would read zero.
type timedProactive struct {
	inner sched.ProactivePolicy
	clock *policyClock
}

// wrapProactive returns a timing decorator that implements exactly the
// optional interfaces the wrapped policy implements.
func wrapProactive(p sched.ProactivePolicy, c *policyClock) sched.ProactivePolicy {
	t := timedProactive{inner: p, clock: c}
	if sp, ok := p.(sched.SolverStatsProvider); ok {
		return &timedSolvingProactive{timedProactive: t, stats: sp}
	}
	return &t
}

type timedSolvingProactive struct {
	timedProactive
	stats sched.SolverStatsProvider
}

func (t *timedSolvingProactive) SolverStats() optimizer.SolverStats { return t.stats.SolverStats() }

func (t *timedProactive) other(start time.Time) { t.clock.otherNS += int64(time.Since(start)) }

func (t *timedProactive) Name() string { return t.inner.Name() }

func (t *timedProactive) Observe(e *webevent.Event) {
	defer t.other(time.Now())
	t.inner.Observe(e)
}

func (t *timedProactive) Plan(now simtime.Time, outstanding []*webevent.Event) []sched.SpecTask {
	start := time.Now()
	tasks := t.inner.Plan(now, outstanding)
	t.clock.planNS += int64(time.Since(start))
	t.clock.planCalls++
	return tasks
}

func (t *timedProactive) ReactiveConfig(e *webevent.Event, start simtime.Time) acmp.Config {
	defer t.other(time.Now())
	return t.inner.ReactiveConfig(e, start)
}

func (t *timedProactive) ObserveExecution(sig webevent.Signature, cfg acmp.Config, lat simtime.Duration) {
	defer t.other(time.Now())
	t.inner.ObserveExecution(sig, cfg, lat)
}

func (t *timedProactive) OnCorrectPrediction() {
	defer t.other(time.Now())
	t.inner.OnCorrectPrediction()
}

func (t *timedProactive) OnMisprediction() {
	defer t.other(time.Now())
	t.inner.OnMisprediction()
}

func (t *timedProactive) OnReactiveEvent() {
	defer t.other(time.Now())
	t.inner.OnReactiveEvent()
}

func (t *timedProactive) SpeculationEnabled() bool {
	defer t.other(time.Now())
	return t.inner.SpeculationEnabled()
}

// timedReactive wraps a reactive governor or EBS and times every call into
// it (all counted as "other"; reactive policies have no plan step). No
// reactive policy solves, so there is no optional interface to forward.
type timedReactive struct {
	inner sched.ReactivePolicy
	clock *policyClock
}

func (t *timedReactive) other(start time.Time) { t.clock.otherNS += int64(time.Since(start)) }

func (t *timedReactive) Name() string { return t.inner.Name() }

func (t *timedReactive) ConfigAtStart(e *webevent.Event, start simtime.Time) acmp.Config {
	defer t.other(time.Now())
	return t.inner.ConfigAtStart(e, start)
}

func (t *timedReactive) Quantum() simtime.Duration {
	defer t.other(time.Now())
	return t.inner.Quantum()
}

func (t *timedReactive) Requantum(e *webevent.Event, cur acmp.Config, elapsed simtime.Duration) acmp.Config {
	defer t.other(time.Now())
	return t.inner.Requantum(e, cur, elapsed)
}

func (t *timedReactive) NoteIdle(from, to simtime.Time) {
	defer t.other(time.Now())
	t.inner.NoteIdle(from, to)
}

func (t *timedReactive) Observe(e *webevent.Event, cfg acmp.Config, start simtime.Time, lat simtime.Duration) {
	defer t.other(time.Now())
	t.inner.Observe(e, cfg, start, lat)
}

// rpcLog collects shard round-trip times and health probes seen by a
// transport decorator.
type rpcLog struct {
	mu    sync.Mutex
	rtts  []time.Duration
	pings atomic.Int64
}

func (l *rpcLog) snapshot() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Duration(nil), l.rtts...)
}

// timedTransport times every shard RPC of the wrapped cluster transport.
type timedTransport struct {
	inner cluster.Transport
	log   *rpcLog
}

// wrapTransport returns a timing decorator that implements cluster.Pinger
// exactly when the wrapped transport does: a decorator that dropped it
// would silently disable the coordinator's heartbeats.
func wrapTransport(t cluster.Transport, l *rpcLog) cluster.Transport {
	tt := timedTransport{inner: t, log: l}
	if p, ok := t.(cluster.Pinger); ok {
		return &timedPingingTransport{timedTransport: tt, pinger: p}
	}
	return &tt
}

func (t *timedTransport) RunShard(ctx context.Context, worker string, req cluster.ShardRequest) (cluster.ShardResponse, error) {
	start := time.Now()
	resp, err := t.inner.RunShard(ctx, worker, req)
	d := time.Since(start)
	t.log.mu.Lock()
	t.log.rtts = append(t.log.rtts, d)
	t.log.mu.Unlock()
	return resp, err
}

type timedPingingTransport struct {
	timedTransport
	pinger cluster.Pinger
}

func (t *timedPingingTransport) Ping(ctx context.Context, worker string) error {
	t.log.pings.Add(1)
	return t.pinger.Ping(ctx, worker)
}

// byteCounter wraps a worker's HTTP handler and counts the bytes of every
// request body it reads and every response body it writes.
type byteCounter struct {
	inner http.Handler
	in    atomic.Int64
	out   atomic.Int64
}

func (b *byteCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = &countingReader{ReadCloser: r.Body, n: &b.in}
	b.inner.ServeHTTP(&countingWriter{ResponseWriter: w, n: &b.out}, r)
}

type countingReader struct {
	io.ReadCloser
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n.Add(int64(n))
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n.Add(int64(n))
	return n, err
}
