// Package server is the simulation-as-a-service layer: a long-running HTTP
// service that accepts simulation campaigns, executes them on the concurrent
// batch runner, and shares one process-wide memo cache across every request,
// so overlapping campaigns (and figure requests) simulate each unique
// session exactly once.
package server

import (
	"fmt"
	"sort"

	"repro/internal/acmp"
	"repro/internal/batch"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/sessions"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/webapp"
)

// Campaign is one simulation campaign request: the cross product of
// applications, trace seeds and schedulers on one platform, optionally
// extended by a predictor sensitivity sweep. Every field is optional; the
// zero Campaign expands to the full scheduler comparison of every
// application on one seed.
type Campaign struct {
	// Platform names the hardware model: "exynos5410" (default) or "tx2"
	// (case-insensitive; the canonical model names are accepted too).
	Platform string `json:"platform,omitempty"`
	// Apps lists the applications to simulate; empty means the full
	// 18-application suite.
	Apps []string `json:"apps,omitempty"`
	// TraceSeeds lists the user/session seeds to generate traces from;
	// empty means seed 1.
	TraceSeeds []int64 `json:"trace_seeds,omitempty"`
	// Schedulers lists the schedulers to compare; empty means all five.
	Schedulers []string `json:"schedulers,omitempty"`
	// Predictor overrides the PES predictor configuration.
	Predictor *PredictorSpec `json:"predictor,omitempty"`
	// Sweep adds a sensitivity sweep on top of the base campaign.
	Sweep *Sweep `json:"sweep,omitempty"`
	// OracleVersion selects the Oracle solver for this campaign ("v1" or
	// "v2"); empty uses the server's configured default. Only Oracle
	// sessions are affected.
	OracleVersion string `json:"oracle_version,omitempty"`
}

// PredictorSpec is the JSON form of the PES predictor configuration. Zero
// fields keep the paper defaults.
type PredictorSpec struct {
	ConfidenceThreshold float64 `json:"confidence_threshold,omitempty"`
	MaxDegree           int     `json:"max_degree,omitempty"`
	// UseDOMAnalysis defaults to true when omitted.
	UseDOMAnalysis *bool `json:"use_dom_analysis,omitempty"`
}

// Sweep describes an optional sensitivity sweep: extra PES sessions are
// added for each confidence threshold (reactive schedulers and the Oracle
// ignore the predictor, so only PES is swept).
type Sweep struct {
	ConfidenceThresholds []float64 `json:"confidence_thresholds,omitempty"`
}

// SessionMeta labels one expanded session of a campaign; results rows carry
// it alongside the engine result.
type SessionMeta struct {
	Platform  string `json:"platform"`
	App       string `json:"app"`
	TraceSeed int64  `json:"trace_seed"`
	Scheduler string `json:"scheduler"`
	// ConfidenceThreshold is set on PES sessions only.
	ConfidenceThreshold float64 `json:"confidence_threshold,omitempty"`
	// OracleVersion is set on Oracle sessions only ("v1"/"v2").
	OracleVersion string `json:"oracle_version,omitempty"`
	// Label is the scheduler presentation label; for swept PES sessions it
	// carries the threshold (e.g. "PES@50%").
	Label string `json:"label"`
}

// Plan is a validated, fully expanded campaign: index-aligned, the metadata
// describing each session and the self-describing wire spec the coordinator
// routes to a worker, which builds session i from Specs[i].
type Plan struct {
	Platform string
	Meta     []SessionMeta
	Specs    []cluster.SessionSpec
	// Sessions holds the runnable sessions built from Specs, index-aligned,
	// for running a plan directly on a batch runner. Only Expand fills it:
	// the public pes.NewCampaign hands it to library callers, and
	// perfbench's reference check re-runs it on a fresh runner. The server
	// never fills it; its coordinator builds each session from Specs on
	// the worker that runs it.
	Sessions []batch.Session
}

// platformByName resolves a campaign platform name to its shared hardware
// model (one instance per model keeps the artifact store's pointer-keyed
// fingerprint memo effective across campaigns).
func platformByName(name string) (*acmp.Platform, error) {
	return acmp.ByName(name)
}

// predictorConfig merges a PredictorSpec over the setup's base configuration.
func predictorConfig(base predictor.Config, spec *PredictorSpec) predictor.Config {
	if spec == nil {
		return base
	}
	cfg := base
	if spec.ConfidenceThreshold != 0 {
		cfg.ConfidenceThreshold = spec.ConfidenceThreshold
	}
	if spec.MaxDegree != 0 {
		cfg.MaxDegree = spec.MaxDegree
	}
	if spec.UseDOMAnalysis != nil {
		cfg.UseDOMAnalysis = *spec.UseDOMAnalysis
	}
	return cfg
}

// Expand validates the campaign and expands it into batch sessions, reusing
// the setup's trained learner and predictor defaults. The expansion is the
// apps × seeds × schedulers cross product at the base predictor
// configuration, plus one extra PES pass per distinct sweep threshold.
func (c Campaign) Expand(setup *experiments.Setup) (*Plan, error) {
	plan, err := c.expand(setup)
	if err != nil {
		return nil, err
	}
	plan.Sessions = make([]batch.Session, len(plan.Specs))
	for i, spec := range plan.Specs {
		if plan.Sessions[i], err = spec.Build(setup); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// expand validates the campaign and expands it into metadata and wire
// specs without building any session, so it generates no trace: the worker
// that executes the plan builds its sessions. Platforms, apps, schedulers,
// and sweep thresholds are all checked here.
func (c Campaign) expand(setup *experiments.Setup) (*Plan, error) {
	platform, err := platformByName(c.Platform)
	if err != nil {
		return nil, err
	}

	var apps []*webapp.Spec
	if len(c.Apps) == 0 {
		apps = webapp.Registry()
	} else {
		for _, name := range c.Apps {
			spec, err := webapp.ByName(name)
			if err != nil {
				return nil, err
			}
			apps = append(apps, spec)
		}
	}

	seeds := c.TraceSeeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}

	var scheds []string
	if len(c.Schedulers) == 0 {
		scheds = sessions.Names()
	} else {
		for _, name := range c.Schedulers {
			canon, err := sessions.Canonical(name)
			if err != nil {
				return nil, err
			}
			scheds = append(scheds, canon)
		}
	}

	baseCfg := predictorConfig(setup.Config.Predictor, c.Predictor)

	oracleVer := setup.Config.OracleVersion.OrDefault()
	if c.OracleVersion != "" {
		oracleVer, err = sched.ParseOracleVersion(c.OracleVersion)
		if err != nil {
			return nil, err
		}
	}

	// Distinct sweep thresholds beyond the base configuration, in ascending
	// order so the expansion (and the results rows) are deterministic.
	var sweepThresholds []float64
	if c.Sweep != nil {
		seen := map[float64]bool{baseCfg.ConfidenceThreshold: true}
		for _, th := range c.Sweep.ConfidenceThresholds {
			if th <= 0 || th > 1 {
				return nil, fmt.Errorf("sweep confidence threshold %g out of range (0, 1]", th)
			}
			if !seen[th] {
				seen[th] = true
				sweepThresholds = append(sweepThresholds, th)
			}
		}
		sort.Float64s(sweepThresholds)
	}

	plan := &Plan{Platform: platform.Name}
	add := func(app *webapp.Spec, seed int64, schedName string, cfg predictor.Config, label string) {
		meta := SessionMeta{
			Platform:  platform.Name,
			App:       app.Name,
			TraceSeed: seed,
			Scheduler: schedName,
			Label:     label,
		}
		spec := cluster.SessionSpec{
			Platform:  platform.Name,
			App:       app.Name,
			TraceSeed: seed,
			Scheduler: schedName,
			Predictor: cfg,
		}
		if schedName == sessions.PES {
			meta.ConfidenceThreshold = cfg.ConfidenceThreshold
		}
		if schedName == sessions.Oracle {
			meta.OracleVersion = oracleVer.String()
			spec.OracleVersion = oracleVer.String()
		}
		plan.Meta = append(plan.Meta, meta)
		plan.Specs = append(plan.Specs, spec)
	}
	for _, app := range apps {
		for _, seed := range seeds {
			for _, name := range scheds {
				add(app, seed, name, baseCfg, name)
			}
			for _, th := range sweepThresholds {
				cfg := baseCfg
				cfg.ConfidenceThreshold = th
				label := fmt.Sprintf("%s@%d%%", sessions.PES, int(th*100+0.5))
				add(app, seed, sessions.PES, cfg, label)
			}
		}
	}
	if len(plan.Meta) == 0 {
		return nil, fmt.Errorf("campaign expands to zero sessions")
	}
	return plan, nil
}

// Tables aggregates campaign results into the energy and QoS tables the
// figure harness computes (the shape of Fig. 11 and 12): one row per
// application, one column per scheduler label, averaged over trace seeds.
// Sessions without a result (failed batch entries) are skipped. results must
// be index-aligned with the plan's specs, as returned by the coordinator.
func (p *Plan) Tables(results []*engine.Result) []*experiments.Table {
	var labels, apps []string
	haveLabel := map[string]bool{}
	haveApp := map[string]bool{}
	type cell struct{ energy, viol, n float64 }
	cells := map[[2]string]*cell{}
	for i, r := range results {
		if i >= len(p.Meta) || r == nil {
			continue
		}
		m := p.Meta[i]
		if !haveLabel[m.Label] {
			haveLabel[m.Label] = true
			labels = append(labels, m.Label)
		}
		if !haveApp[m.App] {
			haveApp[m.App] = true
			apps = append(apps, m.App)
		}
		k := [2]string{m.App, m.Label}
		c := cells[k]
		if c == nil {
			c = &cell{}
			cells[k] = c
		}
		c.energy += r.TotalEnergyMJ
		c.viol += 100 * r.ViolationRate
		c.n++
	}
	energy := &experiments.Table{
		ID:      "energy",
		Title:   "Total energy per session (mJ, averaged over trace seeds)",
		Columns: labels,
	}
	qos := &experiments.Table{
		ID:      "qos",
		Title:   "QoS violation (%, averaged over trace seeds)",
		Columns: labels,
	}
	for _, app := range apps {
		eRow := make([]float64, len(labels))
		vRow := make([]float64, len(labels))
		for j, label := range labels {
			if c := cells[[2]string{app, label}]; c != nil && c.n > 0 {
				eRow[j] = c.energy / c.n
				vRow[j] = c.viol / c.n
			}
		}
		energy.AddRow(app, eRow...)
		qos.AddRow(app, vRow...)
	}
	return []*experiments.Table{energy, qos, p.percentileTable(results)}
}

// percentileTable aggregates the per-event latency distribution of each
// scheduler label against its QoS targets: tail latencies (p50/p95/p99 in
// milliseconds), the tail of the latency-to-QoS-target ratio (a ratio above
// 1 is a violation; p99_qos_ratio says how deep the worst events cut into
// their deadlines), and the overall violation percentage. Means hide tails;
// under a heavy-traffic framing the p95/p99 columns are what a QoS budget
// is set against.
func (p *Plan) percentileTable(results []*engine.Result) *experiments.Table {
	var labels []string
	latencies := map[string][]float64{}
	ratios := map[string][]float64{}
	violations := map[string]int{}
	for i, r := range results {
		if i >= len(p.Meta) || r == nil {
			continue
		}
		label := p.Meta[i].Label
		if _, ok := latencies[label]; !ok {
			labels = append(labels, label)
		}
		for _, o := range r.Outcomes {
			latencies[label] = append(latencies[label], float64(o.Latency)/float64(simtime.Millisecond))
			ratios[label] = append(ratios[label], float64(o.Latency)/float64(o.Event.QoSTarget()))
			if o.Violated {
				violations[label]++
			}
		}
	}
	tab := &experiments.Table{
		ID:      "latency_percentiles",
		Title:   "Per-scheduler event latency percentiles vs QoS target (all sessions pooled)",
		Columns: []string{"p50_ms", "p95_ms", "p99_ms", "p95_qos_ratio", "p99_qos_ratio", "violation_pct"},
	}
	for _, label := range labels {
		ls, rs := latencies[label], ratios[label]
		if len(ls) == 0 {
			continue
		}
		tab.AddRow(label,
			stats.Percentile(ls, 50),
			stats.Percentile(ls, 95),
			stats.Percentile(ls, 99),
			stats.Percentile(rs, 95),
			stats.Percentile(rs, 99),
			100*float64(violations[label])/float64(len(ls)),
		)
	}
	return tab
}
