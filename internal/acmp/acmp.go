// Package acmp models the Asymmetric Chip-Multiprocessor (ACMP) hardware
// substrate that the PES paper schedules onto.
//
// The model captures exactly the properties the schedulers in the paper care
// about:
//
//   - two heterogeneous core clusters (an out-of-order "big" cluster and an
//     in-order "little" cluster), each with a discrete DVFS frequency ladder;
//   - a per-<core, frequency> active power look-up table, mirroring the
//     offline-measured power model the paper persists to a local file;
//   - the classical DVFS latency law T = Tmem + Ndep/f (Eqn. 1), with an
//     additional per-core CPI factor expressing that an in-order core needs
//     more cycles for the same event work;
//   - the DVFS transition (100 µs) and core-migration (20 µs) overheads the
//     paper charges when the configuration changes.
//
// Two platforms are provided: the Exynos 5410 (ODROID XU+E, the paper's
// primary platform) and the NVIDIA TX2 "Parker" SoC used in the paper's
// "other devices" sensitivity study.
package acmp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/simtime"
)

// CoreType identifies one of the two heterogeneous clusters of an ACMP.
type CoreType int

const (
	// LittleCore is the low-performance, energy-conserving in-order cluster
	// (Cortex-A7 on the Exynos 5410).
	LittleCore CoreType = iota
	// BigCore is the high-performance, energy-hungry out-of-order cluster
	// (Cortex-A15 on the Exynos 5410).
	BigCore
)

// String returns the conventional big.LITTLE name of the core type.
func (c CoreType) String() string {
	switch c {
	case LittleCore:
		return "little"
	case BigCore:
		return "big"
	default:
		return fmt.Sprintf("CoreType(%d)", int(c))
	}
}

// Config is one point in the ACMP scheduling space: a <core, frequency>
// tuple, exactly the decision variable of the paper's optimizer.
type Config struct {
	Core    CoreType
	FreqMHz int
}

// String renders the configuration as e.g. "big@1800MHz".
func (c Config) String() string { return fmt.Sprintf("%s@%dMHz", c.Core, c.FreqMHz) }

// IsZero reports whether the configuration is the zero value (no assignment).
func (c Config) IsZero() bool { return c.FreqMHz == 0 }

// Cluster describes one core cluster: its frequency ladder, its active power
// at each frequency, and its CPI factor relative to the big out-of-order
// core (an in-order core retires the same event work in more cycles).
type Cluster struct {
	Core     CoreType
	FreqsMHz []int           // ascending DVFS ladder
	PowerMW  map[int]float64 // active power (mW) per frequency while executing
	CPI      float64         // cycle multiplier relative to the big core
}

// MinFreq returns the lowest frequency of the cluster.
func (cl *Cluster) MinFreq() int { return cl.FreqsMHz[0] }

// MaxFreq returns the highest frequency of the cluster.
func (cl *Cluster) MaxFreq() int { return cl.FreqsMHz[len(cl.FreqsMHz)-1] }

// Platform is a complete ACMP hardware model.
type Platform struct {
	Name string
	// Clusters indexed by core type.
	Little, Big Cluster
	// DVFSLatency is the cost of changing frequency within a cluster.
	DVFSLatency simtime.Duration
	// MigrationLatency is the cost of moving the main thread between
	// clusters.
	MigrationLatency simtime.Duration
	// IdlePowerMW is the platform power draw while the main thread is idle
	// (clusters clock-gated at their lowest operating points).
	IdlePowerMW float64

	configs []Config // cached enumeration
}

// Cluster returns the cluster for the given core type.
func (p *Platform) Cluster(c CoreType) *Cluster {
	if c == BigCore {
		return &p.Big
	}
	return &p.Little
}

// Configs enumerates every <core, frequency> configuration of the platform,
// little cluster first, each cluster in ascending frequency order. The slice
// is cached and must not be mutated by callers.
//
// The cache is not synchronized: populate it from one goroutine (the
// standard constructors do so eagerly; sessions.New forces it for
// hand-built platforms) before sharing the platform across simulation
// workers.
func (p *Platform) Configs() []Config {
	if p.configs == nil {
		var cfgs []Config
		for _, f := range p.Little.FreqsMHz {
			cfgs = append(cfgs, Config{LittleCore, f})
		}
		for _, f := range p.Big.FreqsMHz {
			cfgs = append(cfgs, Config{BigCore, f})
		}
		p.configs = cfgs
	}
	return p.configs
}

// MaxPerformance returns the highest-performance configuration of the
// platform (big cluster at its maximum frequency).
func (p *Platform) MaxPerformance() Config {
	return Config{BigCore, p.Big.MaxFreq()}
}

// MinPerformance returns the lowest-performance configuration of the
// platform (little cluster at its minimum frequency).
func (p *Platform) MinPerformance() Config {
	return Config{LittleCore, p.Little.MinFreq()}
}

// Power returns the active power (mW) drawn while executing on cfg.
// It panics if cfg is not a valid operating point; scheduler code must only
// ever produce valid configurations.
func (p *Platform) Power(cfg Config) float64 {
	pw, ok := p.Cluster(cfg.Core).PowerMW[cfg.FreqMHz]
	if !ok {
		panic(fmt.Sprintf("acmp: %s has no operating point %v", p.Name, cfg))
	}
	return pw
}

// Workload is the hardware-relevant description of one event execution,
// expressed in the terms of the paper's Eqn. 1.
type Workload struct {
	// Tmem is the memory-bound portion of the execution that does not scale
	// with CPU frequency.
	Tmem simtime.Duration
	// Cycles is Ndep: the number of CPU cycles (measured on the big,
	// CPI-reference core) that do not overlap with memory accesses.
	Cycles int64
}

// Latency evaluates the DVFS latency law for the workload on cfg:
//
//	T = Tmem + (Cycles × CPI(core)) / f
//
// with f in MHz so that Cycles/f is directly in microseconds.
func (p *Platform) Latency(w Workload, cfg Config) simtime.Duration {
	cl := p.Cluster(cfg.Core)
	cycles := float64(w.Cycles) * cl.CPI
	compute := cycles / float64(cfg.FreqMHz)
	return w.Tmem + simtime.Duration(math.Ceil(compute))
}

// SwitchOverhead returns the time cost of moving the main thread from one
// configuration to another: a core migration when the cluster changes, plus
// a DVFS transition when the target cluster is not already at the requested
// frequency. Switching from the zero Config (simulation start) is free.
func (p *Platform) SwitchOverhead(from, to Config) simtime.Duration {
	if from.IsZero() || from == to {
		return 0
	}
	var d simtime.Duration
	if from.Core != to.Core {
		d += p.MigrationLatency
		// After a migration the destination cluster must also be brought to
		// the requested operating point.
		d += p.DVFSLatency
		return d
	}
	if from.FreqMHz != to.FreqMHz {
		d += p.DVFSLatency
	}
	return d
}

// EnergyMJ converts an interval of constant power draw into millijoules:
// mW × µs = nJ, so mJ = mW × µs / 1e6.
func EnergyMJ(powerMW float64, d simtime.Duration) float64 {
	return powerMW * float64(d) / 1e6
}

// IdleEnergy returns the energy (mJ) spent idling for duration d.
func (p *Platform) IdleEnergy(d simtime.Duration) float64 {
	return EnergyMJ(p.IdlePowerMW, d)
}

// powerLadder generates a monotonically increasing power table for a
// frequency ladder using the familiar P ≈ base + k·f^α law that holds for
// DVFS operating points (voltage scales with frequency).
func powerLadder(freqs []int, baseMW, kMW, alpha float64) map[int]float64 {
	tbl := make(map[int]float64, len(freqs))
	for _, f := range freqs {
		tbl[f] = baseMW + kMW*math.Pow(float64(f)/1000.0, alpha)
	}
	return tbl
}

// ladder builds an inclusive arithmetic frequency ladder.
func ladder(lo, hi, step int) []int {
	var fs []int
	for f := lo; f <= hi; f += step {
		fs = append(fs, f)
	}
	sort.Ints(fs)
	return fs
}

// Exynos5410 returns the ACMP model of the Samsung Exynos 5410 SoC on the
// ODROID XU+E board: a Cortex-A15 big cluster at 800–1800 MHz in 100 MHz
// steps and a Cortex-A7 little cluster at 350–600 MHz in 50 MHz steps, the
// DVFS/migration overheads reported in Sec. 6.3, and power tables shaped on
// published Exynos 5410 cluster measurements.
func Exynos5410() *Platform {
	littleFreqs := ladder(350, 600, 50)
	bigFreqs := ladder(800, 1800, 100)
	p := &Platform{
		Name: "Exynos5410",
		Little: Cluster{
			Core:     LittleCore,
			FreqsMHz: littleFreqs,
			// ~85 mW at 350 MHz up to ~215 mW at 600 MHz.
			PowerMW: powerLadder(littleFreqs, 40, 350, 1.6),
			CPI:     1.9,
		},
		Big: Cluster{
			Core:     BigCore,
			FreqsMHz: bigFreqs,
			// ~700 mW at 800 MHz up to ~3.4 W at 1.8 GHz.
			PowerMW: powerLadder(bigFreqs, 180, 1150, 1.85),
			CPI:     1.0,
		},
		DVFSLatency:      100 * simtime.Microsecond,
		MigrationLatency: 20 * simtime.Microsecond,
		IdlePowerMW:      140,
	}
	p.Configs() // populate the cache before the platform is shared
	return p
}

// TX2Parker returns the ACMP model of the NVIDIA Parker SoC on the TX2 board
// used in the paper's "other devices" study: a Cortex-A57 cluster (modelled
// as the big cluster, 500–2000 MHz) and a Denver2-derived efficient cluster
// (modelled as the little cluster, 350–1200 MHz). The 2017-era process gives
// it a flatter power curve than the Exynos 5410.
func TX2Parker() *Platform {
	littleFreqs := ladder(350, 1200, 50)
	bigFreqs := ladder(500, 2000, 100)
	p := &Platform{
		Name: "TX2Parker",
		Little: Cluster{
			Core:     LittleCore,
			FreqsMHz: littleFreqs,
			PowerMW:  powerLadder(littleFreqs, 50, 260, 1.5),
			CPI:      1.5,
		},
		Big: Cluster{
			Core:     BigCore,
			FreqsMHz: bigFreqs,
			PowerMW:  powerLadder(bigFreqs, 150, 820, 1.8),
			CPI:      0.85,
		},
		DVFSLatency:      100 * simtime.Microsecond,
		MigrationLatency: 20 * simtime.Microsecond,
		IdlePowerMW:      170,
	}
	p.Configs() // populate the cache before the platform is shared
	return p
}
