// Package chaos is a seeded, deterministic fault injector for the PES
// service: it wraps the cluster Transport/Pinger (injected latency, worker
// 5xx/transport errors, torn shard responses, failed health probes) and the
// store's log file (short writes, crash-at-record-N) so the resilience
// machinery — retry budgets, backoff, journal resume, torn-tail recovery —
// is exercised by tests and CI smokes instead of waiting for production to
// exercise it first.
//
// Determinism: every injection decision is drawn from one seeded PRNG, so a
// single-threaded op sequence (a store's write stream, a serial campaign)
// replays identically for the same seed and config. Under concurrency the
// *assignment* of faults to ops depends on scheduling, but the fault
// density and the counters remain reproducible in distribution.
//
// The injector is wired in two places: `pes-serve -chaos SPEC` (hidden flag
// for the CI chaos smoke) wraps the coordinator transport and, with
// `-store`, the store log; tests construct Injectors directly.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Config selects which faults to inject and how often. The zero value
// injects nothing.
type Config struct {
	// Seed seeds the injector's PRNG. Zero means seed 1 (the injector is
	// always deterministic; there is no "random seed" mode — pick one).
	Seed int64

	// FaultP is the probability a RunShard call fails with an injected
	// transport error (the coordinator classifies it a worker fault:
	// exclude + re-route). [0,1].
	FaultP float64
	// TornP is the probability a RunShard response is torn: the worker ran
	// the shard, but the response loses its tail results (the coordinator's
	// length check classifies it a worker fault). [0,1].
	TornP float64
	// LatencyP is the probability a RunShard call is delayed by a uniform
	// duration in (0, MaxLatency]. [0,1].
	LatencyP float64
	// MaxLatency bounds injected latency. Defaults to 50ms when LatencyP is
	// set and MaxLatency is not.
	MaxLatency time.Duration
	// PingP is the probability a health probe fails. [0,1].
	PingP float64

	// ShortWriteP is the probability a store log write is cut short: a
	// prefix of the record lands on disk and the write errors — the store
	// sees a failed Put, a reopened log sees a torn tail. [0,1].
	ShortWriteP float64
	// CrashAfter, when > 0, makes the wrapped log file "crash" after that
	// many more record writes: the crashing write persists only a prefix,
	// and every write or sync after it fails. Arm it late with
	// Injector.ArmCrashAfter to skip setup-time writes.
	CrashAfter int64
}

// Enabled reports whether the config injects anything at all.
func (c Config) Enabled() bool {
	return c.FaultP > 0 || c.TornP > 0 || c.LatencyP > 0 || c.PingP > 0 ||
		c.ShortWriteP > 0 || c.CrashAfter > 0
}

// ParseSpec parses the -chaos flag format: comma-separated key=value pairs
//
//	seed=42,fault=0.05,torn=0.02,latency=0.2,latency_max=20ms,ping=0.1,short_write=0.01,crash_after=40
//
// Unknown keys are an error, and so are a probability outside [0,1] (NaN
// included), a negative crash_after and a negative latency_max: a typoed
// fault that silently injects nothing would defeat the point of a chaos
// smoke.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return cfg, fmt.Errorf("chaos: bad spec element %q (want key=value)", part)
		}
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		case "fault":
			cfg.FaultP, err = parseProb(v)
		case "torn":
			cfg.TornP, err = parseProb(v)
		case "latency":
			cfg.LatencyP, err = parseProb(v)
		case "latency_max":
			cfg.MaxLatency, err = time.ParseDuration(v)
			if err == nil && cfg.MaxLatency < 0 {
				err = fmt.Errorf("negative duration %v", cfg.MaxLatency)
			}
		case "ping":
			cfg.PingP, err = parseProb(v)
		case "short_write":
			cfg.ShortWriteP, err = parseProb(v)
		case "crash_after":
			cfg.CrashAfter, err = strconv.ParseInt(v, 10, 64)
			if err == nil && cfg.CrashAfter < 0 {
				err = fmt.Errorf("negative count %d", cfg.CrashAfter)
			}
		default:
			return cfg, fmt.Errorf("chaos: unknown spec key %q", k)
		}
		if err != nil {
			return cfg, fmt.Errorf("chaos: bad value for %q: %v", k, err)
		}
	}
	return cfg, nil
}

func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) { // also rejects NaN
		return 0, fmt.Errorf("probability %v outside [0,1]", p)
	}
	return p, nil
}

// Stats counts the faults an Injector has inflicted.
type Stats struct {
	// ShardFaults counts RunShard calls failed with an injected error.
	ShardFaults int64 `json:"shard_faults"`
	// TornResponses counts RunShard responses that lost their tail.
	TornResponses int64 `json:"torn_responses"`
	// Delays counts injected latency sleeps.
	Delays int64 `json:"delays"`
	// PingFaults counts failed health probes.
	PingFaults int64 `json:"ping_faults"`
	// ShortWrites counts store log writes cut short.
	ShortWrites int64 `json:"short_writes"`
	// Crashed reports whether the crash-at-record-N trigger has fired.
	Crashed bool `json:"crashed"`
}

// Injector injects the faults a Config selects. One Injector may wrap any
// number of transports and files; they share the PRNG and the counters.
// Safe for concurrent use.
type Injector struct {
	cfg Config

	mu      sync.Mutex
	rng     *rand.Rand
	writes  int64 // record writes seen by wrapped files
	crashAt int64 // writes value at which the crash fires; 0 = disarmed
	crashed bool

	shardFaults   int64
	tornResponses int64
	delays        int64
	pingFaults    int64
	shortWrites   int64
}

// New builds an Injector for cfg. A CrashAfter in cfg arms the crash
// immediately; use ArmCrashAfter to arm it later (e.g. after setup writes).
func New(cfg Config) *Injector {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if cfg.LatencyP > 0 && cfg.MaxLatency <= 0 {
		cfg.MaxLatency = 50 * time.Millisecond
	}
	in := &Injector{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	if cfg.CrashAfter > 0 {
		in.crashAt = cfg.CrashAfter
	}
	return in
}

// ArmCrashAfter makes the wrapped store file crash after n more record
// writes (see Config.CrashAfter). It may be called at any time, including
// after the wrapped file is already in use.
func (in *Injector) ArmCrashAfter(n int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.crashAt = in.writes + n
}

// Stats snapshots the injected-fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return Stats{
		ShardFaults:   in.shardFaults,
		TornResponses: in.tornResponses,
		Delays:        in.delays,
		PingFaults:    in.pingFaults,
		ShortWrites:   in.shortWrites,
		Crashed:       in.crashed,
	}
}

// roll draws one uniform sample in [0,1).
func (in *Injector) roll() float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64()
}

// Summary renders the non-zero counters for logs, sorted by name.
func (s Stats) Summary() string {
	parts := map[string]int64{
		"delays":         s.Delays,
		"ping_faults":    s.PingFaults,
		"shard_faults":   s.ShardFaults,
		"short_writes":   s.ShortWrites,
		"torn_responses": s.TornResponses,
	}
	var names []string
	for k, v := range parts {
		if v > 0 {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", k, parts[k])
	}
	if s.Crashed {
		if b.Len() > 0 {
			b.WriteString(" ")
		}
		b.WriteString("crashed=true")
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}
