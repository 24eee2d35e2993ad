package control

import (
	"testing"

	"repro/internal/acmp"
	"repro/internal/render"
	"repro/internal/simtime"
	"repro/internal/webevent"
)

func mkFrame(dur simtime.Duration) *render.Frame {
	return render.Produce(webevent.Click, acmp.Config{Core: acmp.BigCore, FreqMHz: 1800},
		0, simtime.Time(dur), true)
}

func TestPFBCommitOrder(t *testing.T) {
	var b PFB
	if _, ok := b.Head(); ok {
		t.Error("empty PFB should have no head")
	}
	if _, ok := b.Commit(); ok {
		t.Error("empty PFB should not commit")
	}
	b.Push(webevent.Click, mkFrame(10*simtime.Millisecond))
	b.Push(webevent.Scroll, mkFrame(5*simtime.Millisecond))
	if b.Size() != 2 {
		t.Errorf("size=%d", b.Size())
	}
	head, ok := b.Head()
	if !ok || head.Type != webevent.Click {
		t.Fatalf("head = %+v", head)
	}
	got, _ := b.Commit()
	if got.Type != webevent.Click || b.Size() != 1 {
		t.Error("commit should pop the oldest frame")
	}
}

func TestPFBSquashWaste(t *testing.T) {
	var b PFB
	b.Push(webevent.Click, mkFrame(10*simtime.Millisecond))
	b.Push(webevent.Scroll, mkFrame(15*simtime.Millisecond))
	dropped, wasted := b.Squash()
	if dropped != 2 || wasted != 25*simtime.Millisecond {
		t.Errorf("dropped=%d wasted=%v", dropped, wasted)
	}
	if b.Size() != 0 {
		t.Error("squash should empty the buffer")
	}
	// Squashing an empty buffer is a no-op.
	if d, w := b.Squash(); d != 0 || w != 0 {
		t.Error("empty squash should be free")
	}
}

func TestFallbackThresholdAndRearm(t *testing.T) {
	f := NewFallback()
	if !f.Enabled() {
		t.Fatal("fallback should start enabled")
	}
	// Three consecutive mis-predictions do not disable; the fourth does.
	for i := 0; i < 3; i++ {
		if f.OnMisprediction() {
			t.Fatalf("disabled too early at %d", i+1)
		}
	}
	if !f.Enabled() {
		t.Fatal("should still be enabled after 3")
	}
	if !f.OnMisprediction() {
		t.Fatal("4th consecutive mis-prediction should disable speculation")
	}
	if f.Enabled() {
		t.Error("speculation should be disabled")
	}
	if f.OnMisprediction() {
		t.Error("a mis-prediction while disabled must not disable speculation again")
	}
	// Re-arms after RearmAfter reactive events.
	for i := 0; i < f.RearmAfter; i++ {
		f.OnReactiveEvent()
	}
	if !f.Enabled() {
		t.Error("speculation should re-arm")
	}
	// A correct prediction resets the consecutive counter.
	f.OnMisprediction()
	f.OnMisprediction()
	f.OnCorrectPrediction()
	for i := 0; i < 3; i++ {
		f.OnMisprediction()
	}
	if !f.Enabled() {
		t.Error("counter should have been reset by the correct prediction")
	}
	// OnReactiveEvent while enabled is a no-op.
	f.OnReactiveEvent()
	if !f.Enabled() {
		t.Error("reactive events while enabled must not disable speculation")
	}
}
