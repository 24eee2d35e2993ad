package mlr

import (
	"reflect"
	"testing"
)

// TestBufferedPredictionZeroAlloc is the CI allocation gate of the buffered
// evaluation path: with a caller-provided probability buffer of sufficient
// capacity, ProbabilitiesInto and PredictRestrictedBuf (restricted or not)
// must not allocate. These are the per-predicted-event calls of the PES predictor.
func TestBufferedPredictionZeroAlloc(t *testing.T) {
	m := NewModel(3, 4)
	if err := m.Fit(synthSamples(500, 1), TrainConfig{}); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.2, 0.7, 0.1}
	buf := make([]float64, m.NumClasses)
	allowed := []int{0, 2}

	if avg := testing.AllocsPerRun(200, func() {
		if _, err := m.ProbabilitiesInto(buf, x); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("ProbabilitiesInto allocates %.1f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, _, _, err := m.PredictRestrictedBuf(buf, x, nil); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("unrestricted PredictRestrictedBuf allocates %.1f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, _, _, err := m.PredictRestrictedBuf(buf, x, allowed); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("PredictRestrictedBuf allocates %.1f objects per call, want 0", avg)
	}
}

// TestBufferedMatchesUnbuffered pins the reused-buffer calls to the
// nil-buffer (allocating) calls: same probabilities, same class, same
// confidence.
func TestBufferedMatchesUnbuffered(t *testing.T) {
	m := NewModel(3, 4)
	if err := m.Fit(synthSamples(500, 1), TrainConfig{}); err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, m.NumClasses)
	for _, x := range [][]float64{{0.2, 0.7, 0.1}, {0.9, 0.05, 0.05}, {0, 0, 1}} {
		want, err := m.ProbabilitiesInto(nil, x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.ProbabilitiesInto(buf, x)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("ProbabilitiesInto(%v) = %v, want %v", x, got, want)
		}
		wc, wp, _, err := m.PredictRestrictedBuf(nil, x, []int{1, 3})
		if err != nil {
			t.Fatal(err)
		}
		gc, gp, _, err := m.PredictRestrictedBuf(buf, x, []int{1, 3})
		if err != nil {
			t.Fatal(err)
		}
		if wc != gc || wp != gp {
			t.Errorf("PredictRestrictedBuf(%v) = (%d, %g), want (%d, %g)", x, gc, gp, wc, wp)
		}
	}
}
