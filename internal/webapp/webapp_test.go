package webapp

import (
	"math/rand"
	"testing"

	"repro/internal/acmp"
	"repro/internal/dom"
	"repro/internal/simtime"
	"repro/internal/webevent"
)

func TestRegistryShape(t *testing.T) {
	if got := len(Registry()); got != 18 {
		t.Fatalf("registry has %d applications, want 18", got)
	}
	if got := len(SeenApps()); got != 12 {
		t.Errorf("seen apps = %d, want 12", got)
	}
	if got := len(UnseenApps()); got != 6 {
		t.Errorf("unseen apps = %d, want 6", got)
	}
	// The paper's applications must all be present.
	for _, name := range []string{"163", "msn", "slashdot", "youtube", "google",
		"amazon", "ebay", "sina", "espn", "bbc", "cnn", "twitter",
		"yahoo", "nytimes", "stackoverflow", "taobao", "tmall", "jd"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("missing application %q", name)
		}
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("expected error for unknown application")
	}
	if len(Registry()) != 18 {
		t.Error("Registry wrong")
	}
}

func TestSpecParametersSane(t *testing.T) {
	for _, s := range Registry() {
		if s.ClickableDensity <= 0 || s.ClickableDensity > 1 {
			t.Errorf("%s: clickable density %v out of range", s.Name, s.ClickableDensity)
		}
		if s.LinkDensity <= 0 || s.LinkDensity > s.ClickableDensity {
			t.Errorf("%s: link density %v should be within (0, clickable]", s.Name, s.LinkDensity)
		}
		if s.Behavior.Noise < 0 || s.Behavior.Noise > 0.5 {
			t.Errorf("%s: noise %v out of range", s.Name, s.Behavior.Noise)
		}
		if s.PageCount < 2 {
			t.Errorf("%s: needs at least 2 pages", s.Name)
		}
		if len(s.Workloads) != webevent.NumInteractions {
			t.Errorf("%s: %d workload models, want %d", s.Name, len(s.Workloads), webevent.NumInteractions)
		}
		if !s.Behavior.TapManifestation.IsTap() || !s.Behavior.MoveManifestation.IsMove() {
			t.Errorf("%s: manifestation types wrong", s.Name)
		}
	}
}

func TestWorkloadMagnitudes(t *testing.T) {
	// Loads must be heavyweight (seconds at max performance), taps moderate
	// (tens to hundreds of ms), moves light (ms to tens of ms); this ordering
	// is what gives the three QoS classes their distinct scheduling pressure.
	p := acmp.Exynos5410()
	max := p.MaxPerformance()
	rng := rand.New(rand.NewSource(1))
	for _, s := range Registry() {
		var loadSum, tapSum, moveSum simtime.Duration
		const n = 200
		for i := 0; i < n; i++ {
			loadSum += p.Latency(s.Workloads[webevent.LoadInteraction].Sample(rng), max)
			tapSum += p.Latency(s.Workloads[webevent.TapInteraction].Sample(rng), max)
			moveSum += p.Latency(s.Workloads[webevent.MoveInteraction].Sample(rng), max)
		}
		load, tap, move := loadSum/n, tapSum/n, moveSum/n
		if load < 800*simtime.Millisecond || load > 3500*simtime.Millisecond {
			t.Errorf("%s: mean load latency at max perf = %v, want ~1–3s", s.Name, load)
		}
		if tap < 40*simtime.Millisecond || tap > 450*simtime.Millisecond {
			t.Errorf("%s: mean tap latency at max perf = %v, want tens-to-hundreds ms", s.Name, tap)
		}
		if move < 2*simtime.Millisecond || move > 33*simtime.Millisecond {
			t.Errorf("%s: mean move latency at max perf = %v, want below the 33ms target", s.Name, move)
		}
	}
}

func TestSampleWorkloadTargetKindAdjustment(t *testing.T) {
	s, _ := ByName("cnn")
	rng := rand.New(rand.NewSource(7))
	var plain, menu int64
	for i := 0; i < 500; i++ {
		plain += s.SampleWorkload(webevent.Click, dom.Link, rng).Cycles
		menu += s.SampleWorkload(webevent.Click, dom.Button, rng).Cycles
	}
	if menu <= plain {
		t.Error("menu-toggle taps should be heavier than link taps on average")
	}
	// Unknown interaction falls back to a small default.
	w := s.SampleWorkload(webevent.Type(99), dom.Text, rng)
	if w.Cycles <= 0 {
		t.Error("fallback workload should be non-trivial")
	}
}

func TestBuildPageDeterministic(t *testing.T) {
	s, _ := ByName("amazon")
	a := s.BuildPage("home", 42)
	b := s.BuildPage("home", 42)
	if a.Len() != b.Len() {
		t.Fatalf("same seed should give same page size: %d vs %d", a.Len(), b.Len())
	}
	if a.ClickableFraction() != b.ClickableFraction() {
		t.Error("same seed should give identical clickable fraction")
	}
	c := s.BuildPage("home", 43)
	if a.Len() == c.Len() && a.ClickableFraction() == c.ClickableFraction() {
		t.Error("different seeds should (almost surely) give different pages")
	}
}

func TestBuildPageDensities(t *testing.T) {
	for _, s := range Registry() {
		tree := s.BuildPage("home", 11)
		if tree.Len() < 10 {
			t.Errorf("%s: page too small (%d nodes)", s.Name, tree.Len())
		}
		cf := tree.ClickableFraction()
		if cf < s.ClickableDensity*0.4 || cf > s.ClickableDensity*2.5+0.2 {
			t.Errorf("%s: clickable fraction %v far from target %v", s.Name, cf, s.ClickableDensity)
		}
		lf := tree.LinkFraction()
		if lf <= 0 {
			t.Errorf("%s: no visible links", s.Name)
		}
		if !tree.Scrollable() {
			t.Errorf("%s: pages should be scrollable", s.Name)
		}
		// The LNES of a fresh page must allow taps and moves.
		lnes := tree.LNES()
		hasTap, hasMove := false, false
		for _, typ := range lnes {
			if typ.IsTap() {
				hasTap = true
			}
			if typ.IsMove() {
				hasMove = true
			}
		}
		if !hasTap || !hasMove {
			t.Errorf("%s: LNES %v should allow both taps and moves", s.Name, lnes)
		}
	}
}

func TestPageNames(t *testing.T) {
	s, _ := ByName("cnn")
	if s.PageName(0) != "home" {
		t.Errorf("PageName(0) = %q", s.PageName(0))
	}
	if s.PageName(3) == "home" {
		t.Error("non-zero page index should not be home")
	}
	// Page indices wrap around the page count.
	if s.PageName(3) != s.PageName(3+s.PageCount) {
		t.Error("page names should wrap modulo PageCount")
	}
}

func TestPerAppDifferentiation(t *testing.T) {
	amazon, _ := ByName("amazon")
	slashdot, _ := ByName("slashdot")
	google, _ := ByName("google")
	if amazon.ClickableDensity <= slashdot.ClickableDensity {
		t.Error("amazon should have a denser clickable area than slashdot (paper Sec. 6.2)")
	}
	if slashdot.Behavior.Noise >= google.Behavior.Noise {
		t.Error("slashdot users should be more predictable than google users (paper Fig. 8)")
	}
}

func TestHeavyTailProducesTypeICandidates(t *testing.T) {
	// A noticeable fraction of tap events must be impossible to finish
	// within 300 ms even at maximum performance — these are the paper's
	// Type I events.
	p := acmp.Exynos5410()
	max := p.MaxPerformance()
	rng := rand.New(rand.NewSource(3))
	s, _ := ByName("cnn")
	over := 0
	const n = 2000
	for i := 0; i < n; i++ {
		w := s.Workloads[webevent.TapInteraction].Sample(rng)
		if p.Latency(w, max) > webevent.TapInteraction.QoSTarget() {
			over++
		}
	}
	frac := float64(over) / n
	if frac < 0.03 || frac > 0.30 {
		t.Errorf("fraction of infeasible taps = %v, want roughly 5–20%%", frac)
	}
}
