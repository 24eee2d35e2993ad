package render

import (
	"testing"

	"repro/internal/acmp"
	"repro/internal/simtime"
	"repro/internal/webevent"
)

func TestSplitStagesSumsToTotal(t *testing.T) {
	for _, in := range []webevent.Interaction{webevent.LoadInteraction, webevent.TapInteraction, webevent.MoveInteraction} {
		total := 123457 * simtime.Microsecond
		stages := SplitStages(total, in)
		var sum simtime.Duration
		for _, d := range stages {
			if d < 0 {
				t.Errorf("%v: negative stage duration", in)
			}
			sum += d
		}
		if sum != total {
			t.Errorf("%v: stages sum to %v, want %v", in, sum, total)
		}
	}
	// Unknown interaction falls back to the tap split.
	stages := SplitStages(1000, webevent.Interaction(99))
	var sum simtime.Duration
	for _, d := range stages {
		sum += d
	}
	if sum != 1000 {
		t.Error("fallback split should preserve total")
	}
	// Moves are paint/composite heavy, loads callback heavy.
	loads := SplitStages(1000*simtime.Millisecond, webevent.LoadInteraction)
	moves := SplitStages(1000*simtime.Millisecond, webevent.MoveInteraction)
	if loads[StageCallback] <= moves[StageCallback] {
		t.Error("loads should spend more in the callback stage than moves")
	}
	if moves[StagePaint] <= loads[StagePaint] {
		t.Error("moves should spend more in paint than loads")
	}
}

func TestProduceAndDisplayLatency(t *testing.T) {
	cfg := acmp.Config{Core: acmp.BigCore, FreqMHz: 1800}
	start := simtime.Time(100 * simtime.Millisecond)
	finish := simtime.Time(150 * simtime.Millisecond)
	f := Produce(webevent.Click, cfg, start, finish, true)
	if f.ProductionTime() != 50*simtime.Millisecond {
		t.Errorf("ProductionTime = %v", f.ProductionTime())
	}
	if !f.Speculative || f.Config != cfg || f.EventType != webevent.Click {
		t.Error("frame metadata wrong")
	}
	// Latency from a trigger after completion is just the VSync wait.
	trigger := simtime.Time(200 * simtime.Millisecond)
	lat := DisplayLatency(trigger, finish)
	if lat <= 0 || lat > VSyncPeriod {
		t.Errorf("fully speculated latency = %v, want within one VSync period", lat)
	}
	// Latency when the frame completes after the trigger includes the
	// production tail.
	lat2 := DisplayLatency(simtime.Time(120*simtime.Millisecond), finish)
	if lat2 < 30*simtime.Millisecond {
		t.Errorf("latency = %v, want ≥ 30ms", lat2)
	}
	if StageCallback.String() != "callback" || Stage(99).String() == "" {
		t.Error("stage names wrong")
	}
}
