// Package render models the part of the Web rendering engine that matters
// for event scheduling: after an event's JavaScript callback runs, the
// engine produces a frame through the style → layout → paint → composite
// pipeline, and the frame becomes visible at the next display refresh
// (VSync, 60 Hz on mobile devices). Event latency therefore includes an idle
// period between frame completion and the next VSync edge (Fig. 1 of the
// paper).
package render

import (
	"repro/internal/acmp"
	"repro/internal/simtime"
	"repro/internal/webevent"
)

// VSyncPeriod is the display refresh interval (60 Hz).
const VSyncPeriod = 16667 * simtime.Microsecond

// Stage identifies one stage of the rendering pipeline.
type Stage int

const (
	// StageCallback is the JavaScript event handler execution.
	StageCallback Stage = iota
	// StageStyle is style resolution.
	StageStyle
	// StageLayout is layout.
	StageLayout
	// StagePaint is painting.
	StagePaint
	// StageComposite is compositing.
	StageComposite

	// NumStages is the number of pipeline stages.
	NumStages int = iota
)

// String names the stage.
func (s Stage) String() string {
	names := [...]string{"callback", "style", "layout", "paint", "composite"}
	if int(s) < len(names) {
		return names[s]
	}
	return "stage?"
}

// stageShare is the approximate fraction of an event's total work spent in
// each pipeline stage, per primitive interaction. Loads are dominated by the
// callback (parsing + script) and layout; moves are dominated by paint and
// composite. The split does not affect scheduling decisions (the optimizer
// reasons about whole events) but is reported per frame for inspection and
// used to attribute mis-prediction waste.
var stageShare = map[webevent.Interaction][NumStages]float64{
	webevent.LoadInteraction: {0.45, 0.15, 0.25, 0.10, 0.05},
	webevent.TapInteraction:  {0.40, 0.20, 0.20, 0.13, 0.07},
	webevent.MoveInteraction: {0.15, 0.10, 0.15, 0.35, 0.25},
}

// Frame is the product of executing one event through the pipeline.
type Frame struct {
	// Event is the event (actual or predicted) the frame answers.
	EventType webevent.Type
	// Started and Completed bound the frame's production on the CPU.
	Started, Completed simtime.Time
	// Config is the ACMP configuration the frame was produced on.
	Config acmp.Config
	// Stages records the per-stage durations.
	Stages [NumStages]simtime.Duration
	// Speculative marks frames produced ahead of their triggering event.
	Speculative bool
}

// ProductionTime returns how long the frame took to produce.
func (f *Frame) ProductionTime() simtime.Duration { return f.Completed.Sub(f.Started) }

// SplitStages attributes a total execution duration to pipeline stages for
// the given interaction.
func SplitStages(total simtime.Duration, in webevent.Interaction) [NumStages]simtime.Duration {
	shares, ok := stageShare[in]
	if !ok {
		shares = stageShare[webevent.TapInteraction]
	}
	var out [NumStages]simtime.Duration
	var used simtime.Duration
	for i := 0; i < NumStages-1; i++ {
		out[i] = simtime.Duration(float64(total) * shares[i])
		used += out[i]
	}
	out[NumStages-1] = total - used // remainder avoids rounding drift
	return out
}

// Produce builds the frame record for an event executed on cfg between start
// and finish.
func Produce(typ webevent.Type, cfg acmp.Config, start, finish simtime.Time, speculative bool) *Frame {
	return &Frame{
		EventType:   typ,
		Started:     start,
		Completed:   finish,
		Config:      cfg,
		Stages:      SplitStages(finish.Sub(start), typ.Interaction()),
		Speculative: speculative,
	}
}

// DisplayMargin is the average wait between frame completion and the next
// display refresh (half a VSync period). QoS-aware schedulers subtract it
// from their deadlines so that frames not only finish but also reach the
// display within the QoS target.
const DisplayMargin = VSyncPeriod / 2

// DisplayLatency returns the user-perceived event latency: the delay from
// the event trigger until the frame reaches the display. The display adds,
// on average, half a refresh period of waiting for the next VSync edge
// (VSync phase is unsynchronized with user input). A frame completed before
// its trigger (fully hidden by speculation) still pays that submission wait.
func DisplayLatency(trigger simtime.Time, frameCompleted simtime.Time) simtime.Duration {
	var tail simtime.Duration
	if frameCompleted.After(trigger) {
		tail = frameCompleted.Sub(trigger)
	}
	return tail + DisplayMargin
}
