// Package sched defines the scheduler contracts used by the simulator and
// implements the reactive baselines the paper compares against: the
// Android-style Interactive and Ondemand CPU governors (QoS-agnostic,
// utilization-driven) and EBS, the state-of-the-art reactive QoS-aware
// event-based scheduler.
package sched

import (
	"repro/internal/acmp"
	"repro/internal/optimizer"
	"repro/internal/simtime"
	"repro/internal/webevent"
)

// ReactivePolicy is the contract for reactive schedulers: they are consulted
// only for events that have already been triggered, one at a time.
type ReactivePolicy interface {
	// Name identifies the scheduler in experiment output.
	Name() string
	// ConfigAtStart returns the ACMP configuration to begin executing the
	// event with, given its actual start time.
	ConfigAtStart(e *webevent.Event, start simtime.Time) acmp.Config
	// Quantum returns the governor sampling period; 0 means the
	// configuration is never re-evaluated during an event's execution.
	Quantum() simtime.Duration
	// Requantum is called after each sampling period while the event
	// executes and may return an updated configuration (governors ramp up
	// under sustained load).
	Requantum(e *webevent.Event, current acmp.Config, elapsed simtime.Duration) acmp.Config
	// NoteIdle informs the policy of an idle interval on the main thread.
	NoteIdle(from, to simtime.Time)
	// Observe reports a completed execution for bookkeeping/cost models.
	Observe(e *webevent.Event, cfg acmp.Config, start simtime.Time, execLatency simtime.Duration)
}

// SpecTask is one entry of a proactive scheduler's plan: an outstanding
// event (Event != nil) or a predicted future event, with the configuration
// the optimizer assigned to it.
type SpecTask struct {
	// Event is the outstanding actual event this task executes, or nil for a
	// predicted (speculative) task.
	Event *webevent.Event
	// Type is the (predicted) event type.
	Type webevent.Type
	// Signature keys the cost model for the task.
	Signature webevent.Signature
	// Config is the assigned ACMP configuration.
	Config acmp.Config
	// EstimatedLatency is the optimizer's latency estimate.
	EstimatedLatency simtime.Duration
	// ExpectedTrigger is the (predicted) trigger time.
	ExpectedTrigger simtime.Time
}

// ProactivePolicy is the contract for proactive schedulers (PES and the
// Oracle): they observe arrivals, plan speculative schedules across
// outstanding and predicted events, and fall back to reactive decisions when
// speculation is unavailable.
type ProactivePolicy interface {
	// Name identifies the scheduler in experiment output.
	Name() string
	// Observe is called for every actual event arrival before scheduling it.
	Observe(e *webevent.Event)
	// Plan produces a speculative schedule covering the outstanding events
	// (possibly none) followed by predicted future events. It may return
	// only the outstanding events (no prediction) or nothing at all, in
	// which case the simulator executes outstanding events reactively.
	Plan(now simtime.Time, outstanding []*webevent.Event) []SpecTask
	// ReactiveConfig returns the configuration for executing an event
	// without speculation (the EBS-equivalent fallback inside PES).
	ReactiveConfig(e *webevent.Event, start simtime.Time) acmp.Config
	// ObserveExecution reports a completed execution for cost-model updates.
	ObserveExecution(sig webevent.Signature, cfg acmp.Config, execLatency simtime.Duration)
	// OnCorrectPrediction and OnMisprediction report prediction outcomes.
	OnCorrectPrediction()
	OnMisprediction()
	// OnReactiveEvent reports an event handled without speculation.
	OnReactiveEvent()
	// SpeculationEnabled reports whether speculation is currently allowed.
	SpeculationEnabled() bool
}

// SolverStatsProvider is implemented by schedulers that run the constrained
// optimizer (PES and the Oracle). The engine copies the stats into the
// session Result after a run, from where the batch runner and the campaign
// results endpoint aggregate them.
type SolverStatsProvider interface {
	// SolverStats returns the scheduler's accumulated solver statistics.
	SolverStats() optimizer.SolverStats
}

// PerformanceLadder returns every configuration of the platform ordered from
// lowest to highest performance (little cluster ascending, then big cluster
// ascending) — the ladder utilization-driven governors walk.
func PerformanceLadder(p *acmp.Platform) []acmp.Config {
	return p.Configs()
}

// governor holds the shared utilization-tracking state of the Interactive
// and Ondemand policies.
type governor struct {
	platform *acmp.Platform
	ladder   []acmp.Config

	lastBusyEnd simtime.Time
	lastBusyDur simtime.Duration
}

func (g *governor) NoteIdle(from, to simtime.Time) {
	// Idle intervals only matter through the gap between lastBusyEnd and the
	// next event start, which ConfigAtStart measures directly.
	_ = from
	_ = to
}

// utilizationAt estimates the recent CPU utilization seen by the governor at
// the given instant, over a sliding window that contains the last busy
// interval and the idle gap since.
func (g *governor) utilizationAt(start simtime.Time) float64 {
	const window = 200 * simtime.Millisecond
	idle := start.Sub(g.lastBusyEnd)
	if idle < 0 {
		idle = 0
	}
	if idle > window {
		return 0
	}
	busy := g.lastBusyDur
	if busy > window-idle {
		busy = window - idle
	}
	return float64(busy) / float64(window)
}

// levelConfig maps a utilization-style level in [0, 1] onto the performance
// ladder.
func (g *governor) levelConfig(level float64) acmp.Config {
	if level < 0 {
		level = 0
	}
	if level > 1 {
		level = 1
	}
	idx := int(level * float64(len(g.ladder)-1))
	return g.ladder[idx]
}

func (g *governor) observe(start simtime.Time, execLatency simtime.Duration) {
	g.lastBusyEnd = start.Add(execLatency)
	g.lastBusyDur = execLatency
}

// Interactive models Android's default Interactive CPU governor: it samples
// CPU utilization and jumps to the highest frequency once utilization
// crosses 85%, which under a bursty event-driven workload means most busy
// time is spent at the big cluster's top frequency (the paper measures
// >80%). It is QoS-agnostic.
type Interactive struct {
	governor
}

// NewInteractive creates the Interactive governor for the platform.
func NewInteractive(p *acmp.Platform) *Interactive {
	return &Interactive{governor{platform: p, ladder: PerformanceLadder(p)}}
}

// Name implements ReactivePolicy.
func (i *Interactive) Name() string { return "Interactive" }

// Quantum implements ReactivePolicy: Interactive samples every 20 ms.
func (i *Interactive) Quantum() simtime.Duration { return 20 * simtime.Millisecond }

// ConfigAtStart implements ReactivePolicy: the starting configuration
// reflects the utilization of the recent window, so an event arriving after
// an idle pause starts on a low-performance operating point.
func (i *Interactive) ConfigAtStart(e *webevent.Event, start simtime.Time) acmp.Config {
	util := i.utilizationAt(start)
	if util >= 0.85 {
		return i.platform.MaxPerformance()
	}
	// Interactive is biased toward responsiveness: it never starts below a
	// third of the ladder once any recent activity exists.
	level := 0.35 + 0.5*util
	return i.levelConfig(level)
}

// Requantum implements ReactivePolicy: during sustained execution the
// sampled utilization is 100%, so the governor ramps to the maximum
// frequency after one period.
func (i *Interactive) Requantum(e *webevent.Event, current acmp.Config, elapsed simtime.Duration) acmp.Config {
	if elapsed >= i.Quantum() {
		return i.platform.MaxPerformance()
	}
	return current
}

// Observe implements ReactivePolicy.
func (i *Interactive) Observe(e *webevent.Event, cfg acmp.Config, start simtime.Time, execLatency simtime.Duration) {
	i.observe(start, execLatency)
}

// Ondemand models the Ondemand governor: it also raises frequency under
// load but samples less often and returns toward low frequencies more
// aggressively, trading responsiveness for energy (Fig. 13 of the paper).
type Ondemand struct {
	governor
}

// NewOndemand creates the Ondemand governor for the platform.
func NewOndemand(p *acmp.Platform) *Ondemand {
	return &Ondemand{governor{platform: p, ladder: PerformanceLadder(p)}}
}

// Name implements ReactivePolicy.
func (o *Ondemand) Name() string { return "Ondemand" }

// Quantum implements ReactivePolicy: Ondemand samples every 100 ms.
func (o *Ondemand) Quantum() simtime.Duration { return 100 * simtime.Millisecond }

// ConfigAtStart implements ReactivePolicy.
func (o *Ondemand) ConfigAtStart(e *webevent.Event, start simtime.Time) acmp.Config {
	util := o.utilizationAt(start)
	if util >= 0.95 {
		return o.platform.MaxPerformance()
	}
	return o.levelConfig(0.15 + 0.5*util)
}

// Requantum implements ReactivePolicy: Ondemand ramps one big step per
// sampling period rather than jumping straight to the maximum.
func (o *Ondemand) Requantum(e *webevent.Event, current acmp.Config, elapsed simtime.Duration) acmp.Config {
	if elapsed < o.Quantum() {
		return current
	}
	// Move roughly half-way up the remaining ladder each period.
	ladder := o.ladder
	cur := 0
	for i, cfg := range ladder {
		if cfg == current {
			cur = i
			break
		}
	}
	next := cur + (len(ladder)-cur)/2
	if next <= cur {
		next = cur + 1
	}
	if next >= len(ladder) {
		next = len(ladder) - 1
	}
	return ladder[next]
}

// Observe implements ReactivePolicy.
func (o *Ondemand) Observe(e *webevent.Event, cfg acmp.Config, start simtime.Time, execLatency simtime.Duration) {
	o.observe(start, execLatency)
}

// EBS is the reactive QoS-aware Event-Based Scheduler of Zhu et al. (HPCA
// 2015), the paper's strongest reactive baseline: before executing an event
// it predicts, with the shared DVFS cost model, the minimum-energy ACMP
// configuration that still meets the event's QoS target, considering only
// that single event.
type EBS struct {
	platform *acmp.Platform
	cost     *optimizer.CostModel
}

// NewEBS creates an EBS instance with its own cost model.
func NewEBS(p *acmp.Platform) *EBS {
	return &EBS{platform: p, cost: optimizer.NewCostModel(p)}
}

// Name implements ReactivePolicy.
func (e *EBS) Name() string { return "EBS" }

// Quantum implements ReactivePolicy: EBS commits to one configuration per
// event.
func (e *EBS) Quantum() simtime.Duration { return 0 }

// ConfigAtStart implements ReactivePolicy: the minimum-energy configuration
// that meets the event's deadline from its actual start time.
func (e *EBS) ConfigAtStart(ev *webevent.Event, start simtime.Time) acmp.Config {
	return e.cost.PickMinEnergyConfig(ev.Signature(), start, ev.Deadline())
}

// Requantum implements ReactivePolicy (no-op for EBS).
func (e *EBS) Requantum(ev *webevent.Event, current acmp.Config, elapsed simtime.Duration) acmp.Config {
	return current
}

// NoteIdle implements ReactivePolicy (no-op for EBS).
func (e *EBS) NoteIdle(from, to simtime.Time) {}

// Observe implements ReactivePolicy: feed the realized latency back into the
// cost model.
func (e *EBS) Observe(ev *webevent.Event, cfg acmp.Config, start simtime.Time, execLatency simtime.Duration) {
	e.cost.Observe(ev.Signature(), cfg, execLatency)
}

// Interface conformance checks.
var (
	_ ReactivePolicy = (*Interactive)(nil)
	_ ReactivePolicy = (*Ondemand)(nil)
	_ ReactivePolicy = (*EBS)(nil)
)
