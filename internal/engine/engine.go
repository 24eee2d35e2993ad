// Package engine is the unified discrete-event simulation engine that
// replays an interaction trace under a scheduler on an ACMP platform and
// measures what the paper measures on real hardware: per-event latency
// against its QoS target and the processor energy consumed over the whole
// session (busy, idle, and speculation-wasted energy).
//
// One event loop (Run) drives every scheduler through the Policy interface.
// Two adapters plug the scheduler contracts of package sched into it:
// RunReactive drives sched.ReactivePolicy implementations (the
// Interactive/Ondemand governors and EBS), including the governors' periodic
// frequency re-evaluation during an event's execution. RunProactive drives
// sched.ProactivePolicy implementations (PES and the Oracle): it executes
// speculative plans ahead of user input, holds the produced frames in the
// Pending Frame Buffer, commits them when the real events match the
// predictions, and squashes them on mis-predictions.
//
// The engine owns everything the two adapters share: the event iteration,
// the CPU time/energy accounting (idle, busy, configuration switches), the
// execute-with-requantum loop, outcome recording, and result finalization.
package engine

import (
	"repro/internal/acmp"
	"repro/internal/optimizer"
	"repro/internal/render"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/webevent"
)

// Outcome records the execution of one event.
type Outcome struct {
	// Event is the trace event.
	Event *webevent.Event
	// Start and Finish bound the event's (frame's) production on the CPU.
	Start, Finish simtime.Time
	// Latency is the user-perceived latency (trigger to display).
	Latency simtime.Duration
	// Violated reports whether the latency exceeded the QoS target.
	Violated bool
	// Config is the (final) ACMP configuration the event executed on.
	Config acmp.Config
	// EnergyMJ is the active energy attributed to the event's execution.
	EnergyMJ float64
	// Speculative marks events whose frame production began before the
	// trigger (only possible under proactive scheduling).
	Speculative bool
}

// PFBSample records the Pending Frame Buffer occupancy when an event occurs
// (Fig. 9).
type PFBSample struct {
	Seq  int
	Size int
}

// Result aggregates one simulation run.
type Result struct {
	Scheduler string
	App       string

	Outcomes []Outcome

	// Energy breakdown in millijoules.
	BusyEnergyMJ   float64
	IdleEnergyMJ   float64
	WastedEnergyMJ float64
	TotalEnergyMJ  float64

	// QoS summary.
	Violations    int
	ViolationRate float64

	// Speculation summary (proactive schedulers only).
	CommittedFrames  int
	Mispredictions   int
	SquashedFrames   int
	MispredictWaste  simtime.Duration
	PFBSamples       []PFBSample
	SpeculationStops int

	// Busy-time breakdown, used to reproduce observations such as
	// "Interactive spends >80% of busy time at the big cluster's top
	// frequency".
	TotalBusy   simtime.Duration
	BigBusy     simtime.Duration
	MaxPerfBusy simtime.Duration

	// Duration is the simulated session length (first trigger to last
	// frame).
	Duration simtime.Duration

	// Solver aggregates the constrained-optimization work of the session's
	// scheduler: solve count, branch-and-bound nodes, plan-cache hits, and
	// solver wall time (Sec. 6.3 overhead analysis). It is zero for
	// schedulers that never solve (the governors and EBS). All counters
	// except the wall time are deterministic for a deterministic run.
	Solver optimizer.SolverStats
}

// finalize computes the derived aggregates.
func (r *Result) finalize() {
	r.Violations = 0
	for _, o := range r.Outcomes {
		if o.Violated {
			r.Violations++
		}
	}
	if len(r.Outcomes) > 0 {
		r.ViolationRate = float64(r.Violations) / float64(len(r.Outcomes))
		first := r.Outcomes[0].Event.Trigger
		last := r.Outcomes[0].Finish
		for _, o := range r.Outcomes {
			if o.Finish.After(last) {
				last = o.Finish
			}
		}
		r.Duration = last.Sub(first)
	}
	r.TotalEnergyMJ = r.BusyEnergyMJ + r.IdleEnergyMJ
}

// MeanLatency returns the mean user-perceived latency across outcomes.
func (r *Result) MeanLatency() simtime.Duration {
	if len(r.Outcomes) == 0 {
		return 0
	}
	var sum simtime.Duration
	for _, o := range r.Outcomes {
		sum += o.Latency
	}
	return sum / simtime.Duration(len(r.Outcomes))
}

// Policy is the per-scheduler plug-in of the unified engine. The engine
// iterates the trace; for each event it first lets the policy spend the time
// up to the trigger (speculative execution under proactive scheduling, idle
// otherwise), then dispatches the event, then runs post-event bookkeeping
// (re-planning, PFB sampling).
type Policy interface {
	// Name identifies the scheduler in experiment output.
	Name() string
	// Advance consumes simulated time up to `until` (the next trigger).
	Advance(ec *Context, until simtime.Time)
	// Dispatch resolves one triggered event, recording its outcome(s) on the
	// context.
	Dispatch(ec *Context, e *webevent.Event, idx int)
	// AfterDispatch performs post-event bookkeeping.
	AfterDispatch(ec *Context, e *webevent.Event, idx int)
}

// Context is the engine state handed to a Policy: the platform, the trace,
// the result under construction, and the CPU time/energy accounting shared
// by every scheduler.
type Context struct {
	platform *acmp.Platform
	events   []*webevent.Event
	res      *Result

	cpuFree   simtime.Time // instant the main thread becomes free
	accounted simtime.Time // instant up to which energy has been charged
	lastCfg   acmp.Config
}

// chargeIdle charges idle energy from the accounting cursor up to t.
func (ec *Context) chargeIdle(t simtime.Time) {
	if t.After(ec.accounted) {
		ec.res.IdleEnergyMJ += ec.platform.IdleEnergy(t.Sub(ec.accounted))
		ec.accounted = t
	}
}

// chargeBusy charges active energy for an execution slice on cfg ending at
// end, and tracks the busy-time breakdown. It returns the energy charged.
func (ec *Context) chargeBusy(cfg acmp.Config, start, end simtime.Time) float64 {
	if !end.After(start) {
		return 0
	}
	ec.chargeIdle(start)
	d := end.Sub(start)
	e := acmp.EnergyMJ(ec.platform.Power(cfg), d)
	ec.res.BusyEnergyMJ += e
	ec.res.TotalBusy += d
	if cfg.Core == acmp.BigCore {
		ec.res.BigBusy += d
	}
	if cfg == ec.platform.MaxPerformance() {
		ec.res.MaxPerfBusy += d
	}
	if end.After(ec.accounted) {
		ec.accounted = end
	}
	return e
}

// switchTo charges the configuration-switch overhead (if any) starting at t
// and returns the instant execution can begin plus the energy charged.
func (ec *Context) switchTo(cfg acmp.Config, t simtime.Time) (simtime.Time, float64) {
	ov := ec.platform.SwitchOverhead(ec.lastCfg, cfg)
	var e float64
	if ov > 0 {
		e = ec.chargeBusy(cfg, t, t.Add(ov))
		t = t.Add(ov)
	}
	ec.lastCfg = cfg
	return t, e
}

// requantumFunc is consulted after each governor sampling period while an
// event executes and may return an updated configuration.
type requantumFunc func(current acmp.Config, elapsed simtime.Duration) acmp.Config

// execute runs e's workload beginning at start on cfg, re-consulting
// requantum every `quantum` (0 means the configuration is never re-evaluated
// — the event commits to one configuration, as under EBS or a proactive
// plan). It returns the instant pure execution began (after the initial
// switch overhead), the finish time, the final configuration, and the total
// energy charged including switches.
func (ec *Context) execute(e *webevent.Event, cfg acmp.Config, start simtime.Time,
	quantum simtime.Duration, requantum requantumFunc) (execStart, finish simtime.Time, final acmp.Config, energy float64) {

	ec.chargeIdle(start)
	now, energy := ec.switchTo(cfg, start)
	execStart = now

	remaining := 1.0
	for remaining > 1e-12 {
		fullLat := ec.platform.Latency(e.Work, cfg)
		if fullLat <= 0 {
			break
		}
		remTime := simtime.Duration(float64(fullLat) * remaining)
		if remTime <= 0 {
			break
		}
		if quantum > 0 && remTime > quantum {
			energy += ec.chargeBusy(cfg, now, now.Add(quantum))
			now = now.Add(quantum)
			remaining -= float64(quantum) / float64(fullLat)
			if next := requantum(cfg, now.Sub(start)); next != cfg {
				var se float64
				now, se = ec.switchTo(next, now)
				energy += se
				cfg = next
			}
		} else {
			energy += ec.chargeBusy(cfg, now, now.Add(remTime))
			now = now.Add(remTime)
			remaining = 0
		}
	}
	return execStart, now, cfg, energy
}

// addOutcome records the resolution of one event: it derives the
// user-perceived latency and the QoS verdict and appends the outcome.
func (ec *Context) addOutcome(e *webevent.Event, start, finish simtime.Time,
	cfg acmp.Config, energy float64, speculative bool) {

	lat := render.DisplayLatency(e.Trigger, finish)
	ec.res.Outcomes = append(ec.res.Outcomes, Outcome{
		Event:       e,
		Start:       start,
		Finish:      finish,
		Latency:     lat,
		Violated:    lat > e.QoSTarget(),
		Config:      cfg,
		EnergyMJ:    energy,
		Speculative: speculative,
	})
}

// Run replays the events under the policy and returns the aggregated result.
// This is the single event loop behind every scheduler.
func Run(p *acmp.Platform, app string, events []*webevent.Event, pol Policy) *Result {
	res := &Result{Scheduler: pol.Name(), App: app}
	// Every event produces at least one outcome; sizing the slice up front
	// keeps the event loop free of append regrowth. (PFBSamples is sized
	// analogously by the proactive adapter on first use — reactive sessions
	// never sample the PFB and get no buffer.)
	res.Outcomes = make([]Outcome, 0, len(events))
	ec := &Context{platform: p, events: events, res: res}
	for i, e := range events {
		pol.Advance(ec, e.Trigger)
		pol.Dispatch(ec, e, i)
		pol.AfterDispatch(ec, e, i)
	}
	res.finalize()
	if sp, ok := pol.(sched.SolverStatsProvider); ok {
		res.Solver = sp.SolverStats()
	}
	return res
}
