package trace

import (
	"bytes"
	"testing"

	"repro/internal/simtime"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

func genOne(t *testing.T, app string, seed int64) *Trace {
	t.Helper()
	spec, err := webapp.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	return Generate(spec, seed, Options{})
}

func TestGenerateBasicShape(t *testing.T) {
	tr := genOne(t, "cnn", 1)
	if tr.Count() < 12 || tr.Count() > 70 {
		t.Errorf("trace has %d events, want within [12, 70]", tr.Count())
	}
	if tr.Events[0].Type != webevent.Load.String() {
		t.Errorf("first event = %s, want load", tr.Events[0].Type)
	}
	if tr.Duration() < 30*simtime.Second {
		t.Errorf("trace duration %v too short", tr.Duration())
	}
	// Triggers must be strictly increasing.
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].TriggerUS <= tr.Events[i-1].TriggerUS {
			t.Fatalf("event %d trigger not increasing", i)
		}
	}
	// Sequence numbers must match positions.
	for i, e := range tr.Events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genOne(t, "amazon", 42)
	b := genOne(t, "amazon", 42)
	if a.Count() != b.Count() {
		t.Fatalf("same seed gave %d vs %d events", a.Count(), b.Count())
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs between identical generations", i)
		}
	}
	c := genOne(t, "amazon", 43)
	if a.Count() == c.Count() && len(a.Events) > 0 && a.Events[len(a.Events)-1] == c.Events[len(c.Events)-1] {
		t.Error("different seeds should produce different traces")
	}
}

func TestGenerateCoversInteractions(t *testing.T) {
	// Across a handful of traces each primitive interaction must appear, and
	// navigation taps must always be followed by loads.
	spec, _ := webapp.ByName("bbc")
	counts := map[webevent.Interaction]int{}
	for seed := int64(1); seed <= 5; seed++ {
		tr := Generate(spec, seed, Options{})
		evs, err := tr.Runtime()
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range evs {
			counts[e.Type.Interaction()]++
			if e.Navigation {
				if i+1 >= len(evs) {
					continue // trace may end right after a navigation tap
				}
				if evs[i+1].Type != webevent.Load {
					t.Fatalf("navigation tap at %d not followed by a load (got %v)", i, evs[i+1].Type)
				}
			}
		}
	}
	for _, in := range []webevent.Interaction{webevent.LoadInteraction, webevent.TapInteraction, webevent.MoveInteraction} {
		if counts[in] == 0 {
			t.Errorf("no %v events generated across 5 traces", in)
		}
	}
	if counts[webevent.MoveInteraction] < counts[webevent.LoadInteraction] {
		t.Error("moves should outnumber loads")
	}
}

func TestRuntimeConversion(t *testing.T) {
	tr := genOne(t, "ebay", 3)
	evs, err := tr.Runtime()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != tr.Count() {
		t.Fatalf("runtime events %d != trace events %d", len(evs), tr.Count())
	}
	for i, e := range evs {
		if e.App != "ebay" || e.Seq != i {
			t.Fatalf("runtime event %d metadata wrong: %+v", i, e)
		}
		if e.Work.Cycles <= 0 {
			t.Fatalf("runtime event %d has no work", i)
		}
		if e.Trigger.Micros() != tr.Events[i].TriggerUS {
			t.Fatalf("trigger mismatch at %d", i)
		}
	}
	// Corrupt the type and make sure conversion fails loudly.
	bad := *tr
	bad.Events = append([]Event(nil), tr.Events...)
	bad.Events[0].Type = "bogus"
	if _, err := bad.Runtime(); err == nil {
		t.Error("expected error for unknown event type")
	}
}

func TestSessionReconstruction(t *testing.T) {
	tr := genOne(t, "cnn", 9)
	sess, err := tr.Session()
	if err != nil {
		t.Fatal(err)
	}
	if sess.CurrentPage() != "home" {
		t.Errorf("reconstructed session should start at home, got %s", sess.CurrentPage())
	}
	if _, err := (&Trace{App: "doesnotexist"}).Session(); err == nil {
		t.Error("expected error for unknown app")
	}
}

func TestGenerateCorpusAndFilters(t *testing.T) {
	apps := webapp.SeenApps()[:3]
	c := GenerateCorpus(apps, 2, 1000, PurposeTrain, Options{})
	if len(c) != 6 {
		t.Fatalf("corpus has %d traces, want 6", len(c))
	}
	perApp := make(map[string][]*Trace)
	for _, tr := range c {
		perApp[tr.App] = append(perApp[tr.App], tr)
	}
	if got := len(perApp); got != 3 {
		t.Errorf("corpus spans %d apps, want 3", got)
	}
	if got := len(perApp[apps[0].Name]); got != 2 {
		t.Errorf("app %s has %d traces, want 2", apps[0].Name, got)
	}
	if c.TotalEvents() <= 0 {
		t.Error("corpus should contain events")
	}
	for _, tr := range c {
		if tr.Purpose != PurposeTrain {
			t.Errorf("trace purpose = %q", tr.Purpose)
		}
	}
	// Traces for the same app with different user indices must differ.
	same := perApp[apps[0].Name]
	if same[0].Seed == same[1].Seed {
		t.Error("different users should have different seeds")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := GenerateCorpus(webapp.SeenApps()[:2], 1, 55, PurposeEval, Options{})
	var buf bytes.Buffer
	if err := Encode(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(c) {
		t.Fatalf("decoded %d traces, want %d", len(back), len(c))
	}
	for i := range c {
		if back[i].App != c[i].App || back[i].Count() != c[i].Count() {
			t.Fatalf("trace %d does not round-trip", i)
		}
		for j := range c[i].Events {
			if back[i].Events[j] != c[i].Events[j] {
				t.Fatalf("trace %d event %d does not round-trip", i, j)
			}
		}
	}
	// Decoding garbage fails.
	if _, err := Decode(bytes.NewBufferString("{not json")); err == nil {
		t.Error("expected decode error")
	}
}

func TestTraceStatisticsMatchPaperScale(t *testing.T) {
	// The paper's traces average ~110 s and ~25 events (up to 70). Our
	// synthetic sessions must be in the same regime.
	var durations, counts []float64
	for _, spec := range webapp.SeenApps() {
		for seed := int64(1); seed <= 3; seed++ {
			tr := Generate(spec, seed, Options{})
			durations = append(durations, tr.Duration().Seconds())
			counts = append(counts, float64(tr.Count()))
		}
	}
	meanDur := mean(durations)
	meanCount := mean(counts)
	if meanDur < 80 || meanDur > 160 {
		t.Errorf("mean trace duration = %.1fs, want ~110s", meanDur)
	}
	if meanCount < 15 || meanCount > 70 {
		t.Errorf("mean event count = %.1f, want a few dozen", meanCount)
	}
}

func TestOptionsBounds(t *testing.T) {
	spec, _ := webapp.ByName("google")
	tr := Generate(spec, 5, Options{TargetDuration: 20 * simtime.Second, MinEvents: 5, MaxEvents: 10})
	if tr.Count() > 10 {
		t.Errorf("MaxEvents not respected: %d", tr.Count())
	}
	if tr.Count() < 5 {
		t.Errorf("MinEvents not respected: %d", tr.Count())
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
