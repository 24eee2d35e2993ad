package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almost(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty-slice mean should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); !almost(got, 5.5, 1e-12) {
		t.Errorf("p50 = %v, want 5.5", got)
	}
	if got := Percentile([]float64{42}, 90); got != 42 {
		t.Errorf("single-element percentile = %v", got)
	}
	// Out-of-range p is clamped.
	if got := Percentile(xs, 150); got != 10 {
		t.Errorf("p150 = %v, want clamp to max", got)
	}
}

func TestRunning(t *testing.T) {
	var r Running
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		r.Add(x)
	}
	if r.Count() != len(xs) {
		t.Errorf("Count = %d", r.Count())
	}
	if !almost(r.Mean(), Mean(xs), 1e-12) {
		t.Errorf("running mean %v != %v", r.Mean(), Mean(xs))
	}
	var empty Running
	if empty.Mean() != 0 || empty.Count() != 0 {
		t.Error("zero-value Running should report zeros")
	}
}

// Property: running mean matches batch mean.
func TestRunningMatchesBatch(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var r Running
		for i, v := range raw {
			xs[i] = float64(v)
			r.Add(xs[i])
		}
		return almost(r.Mean(), Mean(xs), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentile is bounded by min and max and monotone in p.
func TestPercentileBounds(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := float64(raw[0]), float64(raw[0])
		for i, v := range raw {
			xs[i] = float64(v)
			lo, hi = math.Min(lo, xs[i]), math.Max(hi, xs[i])
		}
		p := float64(pRaw) / 255 * 100
		v := Percentile(xs, p)
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
