package predictor

import (
	"testing"

	"repro/internal/dom"
	"repro/internal/mlr"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

func TestWindowFeatures(t *testing.T) {
	spec, _ := webapp.ByName("cnn")
	tree := spec.BuildPage("home", 1)
	var w Window
	feats := Features(tree, &w)
	if len(feats) != NumFeatures {
		t.Fatalf("feature vector has %d entries, want %d", len(feats), NumFeatures)
	}
	// Empty window: distance to previous click is 1, counts are 0.
	if feats[2] != 1 || feats[3] != 0 || feats[4] != 0 {
		t.Errorf("empty-window features = %v", feats)
	}
	// Observe a click and three scrolls plus a load.
	w.Observe(webevent.Click, tree.ViewportCenterY(), 0)
	w.Observe(webevent.Scroll, 0.1, 1)
	w.Observe(webevent.Scroll, 0.2, 2)
	w.Observe(webevent.Scroll, 0.3, 3)
	w.Observe(webevent.Load, 0.0, 4)
	feats = Features(tree, &w)
	if feats[3] != 1.0/WindowSize {
		t.Errorf("navigations feature = %v, want %v", feats[3], 1.0/WindowSize)
	}
	if feats[4] != 3.0/WindowSize {
		t.Errorf("scrolls feature = %v, want %v", feats[4], 3.0/WindowSize)
	}
	if feats[2] >= 1 {
		t.Errorf("distance to previous click should be < 1 after a click, got %v", feats[2])
	}
	// Window keeps only the last five entries.
	w.Observe(webevent.Scroll, 0.4, 5)
	if w.n != WindowSize {
		t.Errorf("window length = %d, want %d", w.n, WindowSize)
	}
	if w.entries[w.n-1].typ != webevent.Scroll {
		t.Error("the newest entry should be last")
	}
	// All feature values must be within [0, 1].
	for i, f := range feats {
		if f < 0 || f > 1 {
			t.Errorf("feature %d (%s) = %v out of [0,1]", i, FeatureNames[i], f)
		}
	}
}

func TestTrainingSamplesShape(t *testing.T) {
	corpus := trace.GenerateCorpus(webapp.SeenApps()[:2], 2, 500, trace.PurposeTrain, trace.Options{})
	samples, err := TrainingSamples(corpus)
	if err != nil {
		t.Fatal(err)
	}
	// One sample per event except each trace's first event.
	want := corpus.TotalEvents() - len(corpus)
	if len(samples) != want {
		t.Errorf("samples = %d, want %d", len(samples), want)
	}
	for _, s := range samples {
		if len(s.Features) != NumFeatures {
			t.Fatalf("sample has %d features", len(s.Features))
		}
		if s.Label < 0 || s.Label >= webevent.NumTypes {
			t.Fatalf("label %d out of range", s.Label)
		}
	}
	if _, err := TrainingSamples(nil); err == nil {
		t.Error("expected error for empty corpus")
	}
}

func TestLearnerFromModelShapeCheck(t *testing.T) {
	if _, err := LearnerFromModel(mlr.NewModel(2, 2)); err == nil {
		t.Error("expected shape error")
	}
	if _, err := LearnerFromModel(mlr.NewModel(NumFeatures, webevent.NumTypes)); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

// trainSmall trains a learner on a small corpus for use in tests.
func trainSmall(t *testing.T) *SequenceLearner {
	t.Helper()
	learner, _, err := TrainOnSeenApps(2, 9000)
	if err != nil {
		t.Fatal(err)
	}
	return learner
}

func TestPredictorHintNavigation(t *testing.T) {
	learner := trainSmall(t)
	spec, _ := webapp.ByName("cnn")
	p := New(learner, spec, 77, DefaultConfig())

	// Find a visible navigation link in the predictor's own session replica
	// and deliver a click on it.
	var link dom.NodeID
	for _, id := range p.sess.Tree().VisibleTappable() {
		n := p.sess.Tree().Node(id)
		if n.NavigatesTo != "" && n.TogglesMenu == dom.None {
			link = id
			break
		}
	}
	if link == dom.None {
		t.Fatal("no visible navigation link")
	}
	p.Observe(&webevent.Event{Seq: 0, App: "cnn", Type: webevent.Load, Trigger: 0})
	p.Observe(&webevent.Event{Seq: 1, App: "cnn", Type: webevent.Click,
		Trigger: simtime.Time(5 * simtime.Second), Target: int(link), Navigation: true})

	pred, ok := p.PredictNext()
	if !ok {
		t.Fatal("prediction failed")
	}
	if pred.Type != webevent.Load || !pred.FromDOMHint {
		t.Errorf("after a navigation tap the predictor should predict a load via DOM hint, got %+v", pred)
	}
	if pred.Confidence < 0.9 {
		t.Errorf("navigation hint confidence = %v", pred.Confidence)
	}
}

func TestPredictorScrollRunPrediction(t *testing.T) {
	learner := trainSmall(t)
	spec, _ := webapp.ByName("bbc")
	p := New(learner, spec, 3, DefaultConfig())
	now := simtime.Time(0)
	p.Observe(&webevent.Event{Seq: 0, App: "bbc", Type: webevent.Load, Trigger: now})
	// A run of scrolls strongly suggests another scroll.
	for i := 1; i <= 3; i++ {
		now = now.Add(700 * simtime.Millisecond)
		p.Observe(&webevent.Event{Seq: i, App: "bbc", Type: spec.Behavior.MoveManifestation, Trigger: now})
	}
	pred, ok := p.PredictNext()
	if !ok {
		t.Fatal("prediction failed")
	}
	if !pred.Type.IsMove() {
		t.Errorf("mid-scroll-run prediction = %v, want a move", pred.Type)
	}
}

func TestPredictSequenceRespectsThresholdAndDegree(t *testing.T) {
	learner := trainSmall(t)
	spec, _ := webapp.ByName("ebay")
	cfg := DefaultConfig()
	p := New(learner, spec, 5, cfg)
	p.Observe(&webevent.Event{Seq: 0, App: "ebay", Type: webevent.Load, Trigger: 0})
	seq := p.PredictSequence()
	if len(seq) > cfg.MaxDegree {
		t.Errorf("sequence length %d exceeds max degree", len(seq))
	}
	for i, pr := range seq {
		if pr.Cumulative < cfg.ConfidenceThreshold-1e-9 {
			t.Errorf("prediction %d cumulative confidence %v below threshold", i, pr.Cumulative)
		}
		if i > 0 && pr.Cumulative > seq[i-1].Cumulative+1e-9 {
			t.Errorf("cumulative confidence must be non-increasing")
		}
		if pr.ExpectedGap <= 0 {
			t.Errorf("prediction %d has no expected gap", i)
		}
	}
	// A 100% threshold should essentially disable prediction.
	strict := New(learner, spec, 5, Config{ConfidenceThreshold: 1.0, MaxDegree: 8, UseDOMAnalysis: true})
	strict.Observe(&webevent.Event{Seq: 0, App: "ebay", Type: webevent.Load, Trigger: 0})
	if got := strict.PredictSequence(); len(got) > 1 {
		t.Errorf("threshold 1.0 should produce at most a single certain prediction, got %d", len(got))
	}
}

func TestPredictorAccuracyOnEvalTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy evaluation is slow")
	}
	learner, _, err := TrainOnSeenApps(3, 12000)
	if err != nil {
		t.Fatal(err)
	}
	apps := []*webapp.Spec{}
	for _, name := range []string{"slashdot", "cnn", "google", "yahoo"} {
		s, _ := webapp.ByName(name)
		apps = append(apps, s)
	}
	eval := trace.GenerateCorpus(apps, 2, 77000, trace.PurposeEval, trace.Options{})
	results, err := EvaluateAccuracy(learner, eval, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results for %d apps, want 4", len(results))
	}
	for _, r := range results {
		if r.Events == 0 {
			t.Errorf("%s: no events evaluated", r.App)
		}
		if r.Accuracy < 0.70 {
			t.Errorf("%s: accuracy %.3f is far below the paper's ~90%% regime", r.App, r.Accuracy)
		}
	}
	// DOM analysis must not hurt accuracy.
	noDOM, err := EvaluateAccuracy(learner, eval, false)
	if err != nil {
		t.Fatal(err)
	}
	var withSum, withoutSum float64
	for i := range results {
		withSum += results[i].Accuracy
		withoutSum += noDOM[i].Accuracy
	}
	if withSum < withoutSum {
		t.Errorf("DOM analysis should improve mean accuracy (with=%.3f, without=%.3f)", withSum/4, withoutSum/4)
	}
}

func TestMatches(t *testing.T) {
	pred := Predicted{Type: webevent.Click}
	if !Matches(pred, &webevent.Event{Type: webevent.Click}) {
		t.Error("same type should match")
	}
	if Matches(pred, &webevent.Event{Type: webevent.Scroll}) {
		t.Error("different type should not match")
	}
}

func TestExpectedGapLearnsFromSession(t *testing.T) {
	learner := trainSmall(t)
	spec, _ := webapp.ByName("msn")
	p := New(learner, spec, 1, DefaultConfig())
	now := simtime.Time(0)
	p.Observe(&webevent.Event{Type: webevent.Load, Trigger: now})
	for i := 0; i < 5; i++ {
		now = now.Add(simtime.FromMillis(400))
		p.Observe(&webevent.Event{Type: spec.Behavior.MoveManifestation, Trigger: now})
	}
	got := p.expectedGap(spec.Behavior.MoveManifestation)
	if got < 300*simtime.Millisecond || got > 500*simtime.Millisecond {
		t.Errorf("expected gap should reflect the observed ~400ms cadence, got %v", got)
	}
	// Unobserved interactions fall back to priors.
	if p.expectedGap(webevent.Load) <= 0 {
		t.Error("load gap prior should be positive")
	}
}
