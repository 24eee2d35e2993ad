package chaos

import "testing"

// FuzzParseSpec feeds arbitrary -chaos flag values to ParseSpec: it must
// never panic, and a spec it accepts must hold every probability in [0,1]
// and no negative count or duration — anything else would inject a
// different fault mix than the operator asked for, or none at all.
func FuzzParseSpec(f *testing.F) {
	f.Add("seed=42,fault=0.05,torn=0.02,latency=0.2,latency_max=20ms,ping=0.1,short_write=0.01,crash_after=40")
	f.Add("seed=5,latency=1,latency_max=250ms")
	f.Add("")
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		for name, p := range map[string]float64{
			"fault": cfg.FaultP, "torn": cfg.TornP, "latency": cfg.LatencyP,
			"ping": cfg.PingP, "short_write": cfg.ShortWriteP,
		} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("ParseSpec(%q) accepted %s=%v outside [0,1]", spec, name, p)
			}
		}
		if cfg.CrashAfter < 0 || cfg.MaxLatency < 0 {
			t.Fatalf("ParseSpec(%q) accepted crash_after=%d latency_max=%v", spec, cfg.CrashAfter, cfg.MaxLatency)
		}
	})
}
