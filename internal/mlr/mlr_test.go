package mlr

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthSamples builds a linearly separable three-class problem.
func synthSamples(n int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	var out []Sample
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		label := 0
		switch {
		case x[0] > 0.6 && x[1] < 0.5:
			label = 1
		case x[2] > 0.65:
			label = 2
		}
		out = append(out, Sample{Features: x, Label: label})
	}
	return out
}

func TestFitAndPredict(t *testing.T) {
	train := synthSamples(2000, 1)
	test := synthSamples(500, 2)
	m := NewModel(3, 3)
	if err := m.Fit(train, TrainConfig{}); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, s := range test {
		c, _, _, err := m.PredictRestrictedBuf(nil, s.Features, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c == s.Label {
			correct++
		}
	}
	acc := float64(correct) / float64(len(test))
	if acc < 0.85 {
		t.Errorf("held-out accuracy = %.3f, want ≥ 0.85 on a near-separable problem", acc)
	}
}

func TestProbabilitiesNormalized(t *testing.T) {
	m := NewModel(3, 4)
	if err := m.Fit(synthSamples(500, 3), TrainConfig{Epochs: 20}); err != nil {
		t.Fatal(err)
	}
	probs, err := m.ProbabilitiesInto(nil, []float64{0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Errorf("probability %v out of range", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestPredictRestricted(t *testing.T) {
	train := synthSamples(2000, 4)
	m := NewModel(3, 3)
	if err := m.Fit(train, TrainConfig{}); err != nil {
		t.Fatal(err)
	}
	// Pick a point that clearly belongs to class 1, then forbid class 1.
	x := []float64{0.9, 0.1, 0.1}
	full, _, _, err := m.PredictRestrictedBuf(nil, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full != 1 {
		t.Skipf("trained model classifies the probe as %d; restriction test not meaningful", full)
	}
	c, conf, _, err := m.PredictRestrictedBuf(nil, x, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if c == 1 {
		t.Error("restricted prediction must not return a forbidden class")
	}
	if conf <= 0 || conf > 1 {
		t.Errorf("restricted confidence = %v", conf)
	}
	// An empty restriction is the argmax over every class.
	probs, err := m.ProbabilitiesInto(nil, x)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for c, p := range probs {
		if p > probs[best] {
			best = c
		}
	}
	if full != best {
		t.Errorf("empty restriction returned class %d, want the argmax %d", full, best)
	}
	// Out-of-range allowed classes are ignored.
	c3, _, _, err := m.PredictRestrictedBuf(nil, x, []int{7, 2})
	if err != nil || c3 != 2 {
		t.Errorf("out-of-range allowed entries should be ignored, got %d (%v)", c3, err)
	}
}

func TestUntrainedAndShapeErrors(t *testing.T) {
	var m Model
	if _, _, _, err := m.PredictRestrictedBuf(nil, []float64{1}, nil); err != ErrNotTrained {
		t.Errorf("expected ErrNotTrained, got %v", err)
	}
	tr := NewModel(2, 2)
	if err := tr.Fit(nil, TrainConfig{}); err == nil {
		t.Error("expected error for empty training set")
	}
	if err := tr.Fit([]Sample{{Features: []float64{1}, Label: 0}}, TrainConfig{}); err == nil {
		t.Error("expected error for wrong feature count")
	}
	if err := tr.Fit([]Sample{{Features: []float64{1, 2}, Label: 5}}, TrainConfig{}); err == nil {
		t.Error("expected error for out-of-range label")
	}
	if err := tr.Fit([]Sample{{Features: []float64{1, 2}, Label: 1}}, TrainConfig{Epochs: 1}); err != nil {
		t.Errorf("valid fit failed: %v", err)
	}
	if _, err := tr.ProbabilitiesInto(nil, []float64{1}); err == nil {
		t.Error("expected error for wrong probe size")
	}
}

func TestDeterministicTraining(t *testing.T) {
	train := synthSamples(800, 5)
	a := NewModel(3, 3)
	b := NewModel(3, 3)
	if err := a.Fit(train, TrainConfig{Epochs: 30}); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(train, TrainConfig{Epochs: 30}); err != nil {
		t.Fatal(err)
	}
	for c := range a.Weights {
		for i := range a.Weights[c] {
			if a.Weights[c][i] != b.Weights[c][i] {
				t.Fatal("training must be deterministic for a fixed config")
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := NewModel(3, 3)
	if err := m.Fit(synthSamples(500, 6), TrainConfig{Epochs: 20}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, 0.7, 0.2}
	c1, p1, _, _ := m.PredictRestrictedBuf(nil, x, nil)
	c2, p2, _, _ := back.PredictRestrictedBuf(nil, x, nil)
	if c1 != c2 || math.Abs(p1-p2) > 1e-12 {
		t.Error("loaded model must predict identically")
	}
	// Corrupt payloads are rejected.
	if _, err := Load(bytes.NewBufferString("{")); err == nil {
		t.Error("expected error for truncated JSON")
	}
	if _, err := Load(bytes.NewBufferString(`{"num_features":2,"num_classes":3,"weights":[[0,0,0]]}`)); err == nil {
		t.Error("expected error for class count mismatch")
	}
	if _, err := Load(bytes.NewBufferString(`{"num_features":2,"num_classes":1,"weights":[[0,0]]}`)); err == nil {
		t.Error("expected error for weight length mismatch")
	}
}

// Property: probabilities are always a distribution, for any finite features.
func TestProbabilityDistributionProperty(t *testing.T) {
	m := NewModel(3, 5)
	if err := m.Fit(synthSamples(300, 7), TrainConfig{Epochs: 10}); err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c int16) bool {
		x := []float64{float64(a) / 1000, float64(b) / 1000, float64(c) / 1000}
		probs, err := m.ProbabilitiesInto(nil, x)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, p := range probs {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSigmoidClamping(t *testing.T) {
	if s := sigmoid(-1000); s <= 0 || s > 1e-6 {
		t.Errorf("sigmoid(-1000) = %v", s)
	}
	if s := sigmoid(1000); s < 1-1e-6 || s >= 1 {
		t.Errorf("sigmoid(1000) = %v", s)
	}
	if math.Abs(sigmoid(0)-0.5) > 1e-12 {
		t.Error("sigmoid(0) should be 0.5")
	}
}
