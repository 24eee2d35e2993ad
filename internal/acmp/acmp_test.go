package acmp

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

func TestExynosLadders(t *testing.T) {
	p := Exynos5410()
	if got := len(p.Little.FreqsMHz); got != 6 {
		t.Errorf("little ladder has %d points, want 6 (350–600 step 50)", got)
	}
	if got := len(p.Big.FreqsMHz); got != 11 {
		t.Errorf("big ladder has %d points, want 11 (800–1800 step 100)", got)
	}
	if got := len(p.Configs()); got != 17 {
		t.Errorf("Configs() = %d, want 17", got)
	}
	if p.Little.MinFreq() != 350 || p.Little.MaxFreq() != 600 {
		t.Errorf("little range = %d–%d", p.Little.MinFreq(), p.Little.MaxFreq())
	}
	if p.Big.MinFreq() != 800 || p.Big.MaxFreq() != 1800 {
		t.Errorf("big range = %d–%d", p.Big.MinFreq(), p.Big.MaxFreq())
	}
}

func TestConfigValidity(t *testing.T) {
	p := Exynos5410()
	if !slices.Contains(p.Configs(), Config{BigCore, 1800}) {
		t.Error("big@1800 should be valid")
	}
	if slices.Contains(p.Configs(), Config{BigCore, 1850}) {
		t.Error("big@1850 should be invalid")
	}
	if slices.Contains(p.Configs(), Config{LittleCore, 800}) {
		t.Error("little@800 should be invalid")
	}
	if p.MaxPerformance() != (Config{BigCore, 1800}) {
		t.Errorf("MaxPerformance = %v", p.MaxPerformance())
	}
	if p.MinPerformance() != (Config{LittleCore, 350}) {
		t.Errorf("MinPerformance = %v", p.MinPerformance())
	}
}

func TestPowerMonotonic(t *testing.T) {
	for _, p := range []*Platform{Exynos5410(), TX2Parker()} {
		for _, cl := range []*Cluster{&p.Little, &p.Big} {
			prev := 0.0
			for _, f := range cl.FreqsMHz {
				pw := cl.PowerMW[f]
				if pw <= prev {
					t.Errorf("%s %s: power not increasing at %d MHz (%v ≤ %v)", p.Name, cl.Core, f, pw, prev)
				}
				prev = pw
			}
		}
		// The big cluster at max should dominate the little cluster at max.
		if p.Power(p.MaxPerformance()) <= p.Power(Config{LittleCore, p.Little.MaxFreq()}) {
			t.Errorf("%s: big max power should exceed little max power", p.Name)
		}
	}
}

func TestLatencyLaw(t *testing.T) {
	p := Exynos5410()
	w := Workload{Tmem: 10 * simtime.Millisecond, Cycles: 180_000_000} // 180 M cycles
	// big @1800: 10ms + 180e6/1800 µs = 10ms + 100ms = 110ms
	lat := p.Latency(w, Config{BigCore, 1800})
	if lat != 110*simtime.Millisecond {
		t.Errorf("latency big@1800 = %v, want 110ms", lat)
	}
	// big @900 doubles the compute part: 10 + 200 = 210ms
	lat = p.Latency(w, Config{BigCore, 900})
	if lat != 210*simtime.Millisecond {
		t.Errorf("latency big@900 = %v, want 210ms", lat)
	}
	// little pays the CPI penalty.
	little := p.Latency(w, Config{LittleCore, 600})
	big600equiv := w.Tmem + simtime.Duration(float64(w.Cycles)/600)
	if little <= big600equiv {
		t.Errorf("little latency %v should exceed CPI-free latency %v", little, big600equiv)
	}
}

func TestLatencyMonotoneInFrequency(t *testing.T) {
	f := func(cyclesRaw uint32, tmemRaw uint16) bool {
		p := Exynos5410()
		w := Workload{Tmem: simtime.Duration(tmemRaw), Cycles: int64(cyclesRaw)}
		for _, cl := range []*Cluster{&p.Little, &p.Big} {
			prev := simtime.Duration(1<<62 - 1)
			for _, fr := range cl.FreqsMHz {
				lat := p.Latency(w, Config{cl.Core, fr})
				if lat > prev {
					return false
				}
				prev = lat
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnergyAndIdle(t *testing.T) {
	p := Exynos5410()
	w := Workload{Tmem: 0, Cycles: 90_000_000}
	cfg := Config{BigCore, 1800}
	lat := p.Latency(w, cfg)
	wantMJ := p.Power(cfg) * float64(lat) / 1e6
	if got := EnergyMJ(p.Power(cfg), lat); got != wantMJ {
		t.Errorf("EnergyMJ = %v, want %v", got, wantMJ)
	}
	if got := p.IdleEnergy(simtime.Second); got != p.IdlePowerMW*1e6/1e6 {
		t.Errorf("IdleEnergy(1s) = %v mJ, want %v", got, p.IdlePowerMW)
	}
	if EnergyMJ(1000, simtime.Second) != 1000 {
		t.Error("1 W for 1 s should be 1000 mJ")
	}
}

func TestSwitchOverhead(t *testing.T) {
	p := Exynos5410()
	same := Config{BigCore, 1000}
	if d := p.SwitchOverhead(same, same); d != 0 {
		t.Errorf("no-op switch cost %v", d)
	}
	if d := p.SwitchOverhead(Config{}, same); d != 0 {
		t.Errorf("boot switch cost %v", d)
	}
	if d := p.SwitchOverhead(Config{BigCore, 1000}, Config{BigCore, 1800}); d != 100*simtime.Microsecond {
		t.Errorf("DVFS switch cost %v, want 100µs", d)
	}
	if d := p.SwitchOverhead(Config{BigCore, 1000}, Config{LittleCore, 600}); d != 120*simtime.Microsecond {
		t.Errorf("migration switch cost %v, want 120µs", d)
	}
}

func TestClusterHelpers(t *testing.T) {
	p := Exynos5410()
	if !slices.Contains(p.Big.FreqsMHz, 1200) || slices.Contains(p.Big.FreqsMHz, 1250) {
		t.Error("big ladder wrong")
	}
}

func TestBigIsFasterButHungrier(t *testing.T) {
	// For a fixed workload, the big cluster at max frequency must be the
	// fastest configuration, and the little cluster at min frequency the
	// most frugal per unit time.
	p := Exynos5410()
	w := Workload{Tmem: simtime.Millisecond, Cycles: 50_000_000}
	fastest := p.MaxPerformance()
	for _, cfg := range p.Configs() {
		if p.Latency(w, cfg) < p.Latency(w, fastest) {
			t.Errorf("%v beats MaxPerformance latency", cfg)
		}
		if p.Power(cfg) < p.Power(p.MinPerformance()) {
			t.Errorf("%v draws less power than MinPerformance", cfg)
		}
	}
}

func TestCoreTypeString(t *testing.T) {
	if LittleCore.String() != "little" || BigCore.String() != "big" {
		t.Error("CoreType.String wrong")
	}
	if CoreType(9).String() == "" {
		t.Error("unknown core type should still render")
	}
	if (Config{BigCore, 1800}).String() != "big@1800MHz" {
		t.Errorf("Config.String = %s", Config{BigCore, 1800})
	}
}

func TestPowerPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid operating point")
		}
	}()
	Exynos5410().Power(Config{BigCore, 12345})
}

func TestTX2Platform(t *testing.T) {
	p := TX2Parker()
	if p.Name != "TX2Parker" {
		t.Errorf("Name = %s", p.Name)
	}
	if len(p.Configs()) == 0 {
		t.Fatal("TX2 has no configs")
	}
	// The newer SoC should be more efficient: same work at big-max costs less
	// energy than on the Exynos big-max.
	w := Workload{Tmem: 0, Cycles: 200_000_000}
	energy := func(p *Platform) float64 {
		cfg := p.MaxPerformance()
		return EnergyMJ(p.Power(cfg), p.Latency(w, cfg))
	}
	e1, e2 := energy(Exynos5410()), energy(p)
	if e2 >= e1 {
		t.Errorf("TX2 energy %v should be below Exynos energy %v for the same work", e2, e1)
	}
}
