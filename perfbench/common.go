package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"sort"
	"time"

	"repro/internal/artifacts"
	"repro/internal/batch"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/sessions"
	"repro/internal/webapp"
)

// workers is the load the benchmark offers: clients, runner workers and
// job workers all number the host's CPUs.
func workers() int { return runtime.NumCPU() }

// discardLogger silences a server, coordinator or worker so that stderr
// I/O is not part of what is measured.
func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// harnessConfig is the experiment harness every simulated process uses: the
// paper defaults, a private artifact store (so no process is warmed by
// another's traces or trained model), and the given worker-pool size.
func harnessConfig(parallel int) experiments.Config {
	return experiments.Config{Artifacts: artifacts.NewStore(), Parallel: parallel}
}

// --- inputs ---------------------------------------------------------------

// Trace-seed ranges. The harness's own training and evaluation corpora use
// seeds below 10^6, so none of these ever hits a corpus trace.
const (
	poolSeedBase  = 100_000_000
	freshSeedBase = 300_000_000_000
	sweepSeedBase = 500_000_000_000
	poolSeeds     = 4 // trace seeds per application in the campaign pool
	freshEvery    = 10
)

// inputs generates every workload input from the run seed.
type inputs struct {
	seed  int64
	apps  []string
	seeds []int64 // the campaign pool's trace seeds
}

// newInputs fixes the campaign pool — the working set a long-running
// server keeps warm — independently of the seed, so the pool's simulated
// outcomes are the same for every seed; the seed picks the traffic over it:
// which campaigns, in which order, and the never-seen trace seeds.
func newInputs(seed int64) *inputs {
	in := &inputs{seed: seed}
	for _, spec := range webapp.Registry() {
		in.apps = append(in.apps, spec.Name)
	}
	for i := int64(1); i <= poolSeeds; i++ {
		in.seeds = append(in.seeds, poolSeedBase+i)
	}
	return in
}

// offset spreads runs with different seeds over disjoint fresh-seed ranges.
func (in *inputs) offset() int64 {
	o := in.seed % 100_000
	if o < 0 {
		o = -o
	}
	return o * 1_000_000
}

// sweepSeed is the never-seen trace seed of sweep batch b.
func (in *inputs) sweepSeed(b int) int64 { return sweepSeedBase + in.offset() + int64(b) }

// warmup returns campaigns that together cover the whole pool (every
// application at every pool seed, all five schedulers) exactly once.
func (in *inputs) warmup() []server.Campaign {
	var out []server.Campaign
	for a := 0; a+1 < len(in.apps); a += 2 {
		for s := 0; s+1 < len(in.seeds); s += 2 {
			out = append(out, server.Campaign{
				Apps:       []string{in.apps[a], in.apps[a+1]},
				TraceSeeds: []int64{in.seeds[s], in.seeds[s+1]},
			})
		}
	}
	return out
}

// campaign returns measured campaign i: two applications at two pool
// seeds, five schedulers, 20 sessions. One campaign in freshEvery swaps its
// second seed for a never-seen one, so the cold path shows in the tail.
func (in *inputs) campaign(i int) server.Campaign {
	rng := rand.New(rand.NewSource(in.seed*1_000_003 + int64(i)))
	a := rng.Perm(len(in.apps))
	s := rng.Perm(len(in.seeds))
	seeds := []int64{in.seeds[s[0]], in.seeds[s[1]]}
	if rng.Intn(freshEvery) == 0 {
		seeds[1] = freshSeedBase + in.offset() + int64(i)
	}
	return server.Campaign{Apps: []string{in.apps[a[0]], in.apps[a[1]]}, TraceSeeds: seeds}
}

// --- digests ----------------------------------------------------------------

var wallNS = regexp.MustCompile(`"wall_ns":-?[0-9]+`)

// digest is a SHA-256 over a compact result encoding.
type digest [32]byte

// normDigest digests a compact result encoding with the solver's host-timed
// wall_ns zeroed; every other field of a result is deterministic.
func normDigest(compact []byte) digest {
	return sha256.Sum256(wallNS.ReplaceAll(compact, []byte(`"wall_ns":0`)))
}

// resultDigest is normDigest of a directly computed result.
func resultDigest(res *engine.Result) (digest, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return digest{}, err
	}
	return normDigest(b), nil
}

// sessionKey names one session of a campaign.
type sessionKey struct {
	app   string
	seed  int64
	sched string
}

func (k sessionKey) String() string { return fmt.Sprintf("%s/%d/%s", k.app, k.seed, k.sched) }

// --- simulated-outcome metrics ----------------------------------------------

// simAcc accumulates the paper's headline comparison over a fixed set of
// sessions: PES energy against the Interactive governor, and the share of
// PES events that miss their QoS target.
type simAcc struct {
	pesEnergy, interactiveEnergy float64
	pesViolations, pesEvents     int
}

func (a *simAcc) add(sched string, res *engine.Result) {
	switch sched {
	case sessions.PES:
		a.pesEnergy += res.TotalEnergyMJ
		a.pesViolations += res.Violations
		a.pesEvents += len(res.Outcomes)
	case sessions.Interactive:
		a.interactiveEnergy += res.TotalEnergyMJ
	}
}

func (a *simAcc) report(r *run) {
	if a.interactiveEnergy <= 0 || a.pesEvents == 0 {
		r.fail("simulated-outcome metrics have no PES or Interactive sessions")
		return
	}
	r.e2e["sim_pes_energy_saving_pct"] = 100 * (1 - a.pesEnergy/a.interactiveEnergy)
	r.e2e["sim_pes_qos_violation_pct"] = 100 * float64(a.pesViolations) / float64(a.pesEvents)
}

// --- reference check --------------------------------------------------------

// verifyAgainstDirect re-simulates every distinct session in seen on a fresh
// in-process harness and a fresh runner, sharing no cache with the system
// under test, and fails every session whose digest differs. It returns the
// simulated-outcome metrics over the sessions in pool.
func verifyAgainstDirect(r *run, seen map[sessionKey]digest, pool map[sessionKey]bool) (*simAcc, error) {
	setup, err := experiments.NewSetup(harnessConfig(workers()))
	if err != nil {
		return nil, err
	}
	type pair struct {
		app  string
		seed int64
	}
	pairs := map[pair]bool{}
	for k := range seen {
		pairs[pair{k.app, k.seed}] = true
	}
	var keys []pair
	for p := range pairs {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].app != keys[j].app {
			return keys[i].app < keys[j].app
		}
		return keys[i].seed < keys[j].seed
	})
	var (
		specs []batch.Session
		meta  []server.SessionMeta
	)
	for _, p := range keys {
		plan, err := server.Campaign{Apps: []string{p.app}, TraceSeeds: []int64{p.seed}}.Expand(setup)
		if err != nil {
			return nil, err
		}
		specs = append(specs, plan.Sessions...)
		meta = append(meta, plan.Meta...)
	}
	results, err := batch.NewRunner(workers()).Run(specs)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	acc := &simAcc{}
	checked := 0
	for i, res := range results {
		k := sessionKey{meta[i].App, meta[i].TraceSeed, meta[i].Scheduler}
		want, ok := seen[k]
		if !ok {
			continue
		}
		got, err := resultDigest(res)
		if err != nil {
			return nil, err
		}
		checked++
		if got != want {
			r.fail("session %s differs from a direct in-process run", k)
		}
		if pool[k] {
			acc.add(k.sched, res)
		}
	}
	if checked != len(seen) {
		r.fail("reference run covered %d of %d sessions", checked, len(seen))
	}
	r.note("check: %d distinct sessions match a direct in-process run", checked)
	return acc, nil
}

// --- statistics -------------------------------------------------------------

// A measurement window is split into equal parts, and a metric is the
// median of the parts' values, so a transient stall of a shared host moves
// one part rather than the result. Rates use rateParts parts; latency
// percentiles use fewer, longer latencyParts so that each part still has
// ten samples beyond its p95.
const (
	rateParts    = 10
	latencyParts = 4
)

// window records the completions of a closed loop's operations.
type window struct {
	start  time.Time
	length time.Duration
	ends   []time.Time
	durs   []time.Duration
	units  []int
}

func newWindow(seconds float64) *window {
	return &window{start: time.Now(), length: time.Duration(seconds * float64(time.Second))}
}

func (w *window) deadline() time.Time { return w.start.Add(w.length) }

// done records an operation that took dur, completed at end and carried
// units.
func (w *window) done(end time.Time, dur time.Duration, units int) {
	w.ends = append(w.ends, end)
	w.durs = append(w.durs, dur)
	w.units = append(w.units, units)
}

// rate is the median over the parts of the units (or, with ops, the
// operations) completed per second. Completions after the window are not
// counted.
func (w *window) rate(ops bool) float64 { return median(w.rates(ops)) }

// latency is the median over latencyParts parts of the window of the
// q-quantile of the durations of the operations completed in each part.
func (w *window) latency(q float64) float64 {
	part := w.length / latencyParts
	samples := make([][]float64, latencyParts)
	for i, end := range w.ends {
		k := int(end.Sub(w.start) / part)
		if k < 0 || k >= latencyParts {
			continue
		}
		samples[k] = append(samples[k], msOf(w.durs[i]))
	}
	var qs []float64
	for _, xs := range samples {
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, q))
		}
	}
	return median(qs)
}

// rates lists the per-part rates rate takes the median of.
func (w *window) rates(ops bool) []float64 {
	part := w.length / rateParts
	counts := make([]float64, rateParts)
	for i, end := range w.ends {
		k := int(end.Sub(w.start) / part)
		if k < 0 || k >= rateParts {
			continue
		}
		if ops {
			counts[k]++
		} else {
			counts[k] += float64(w.units[i])
		}
	}
	for k := range counts {
		counts[k] /= part.Seconds()
	}
	return counts
}

// quantile returns the q-quantile (nearest rank) of xs; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tailSamples reports how many samples lie strictly beyond the p95.
func tailSamples(xs []float64) int {
	p := quantile(xs, 0.95)
	n := 0
	for _, x := range xs {
		if x > p {
			n++
		}
	}
	return n
}
