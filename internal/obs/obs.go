// Package obs is the stdlib-only telemetry substrate: a metrics registry
// (counters, gauges, fixed-bucket histograms) with Prometheus text
// exposition, per-campaign tracing (see trace.go), and the live debug
// surface (pprof + expvar).
//
// The registry is the read side of the counters the rest of the system
// already keeps. Two kinds of series coexist:
//
//   - Native metrics (Counter, Gauge, Histogram): atomic, nil-safe, and
//     allocation-free on the increment/observe path, so they can sit on the
//     simulation hot path the same way the engine's zero-alloc discipline
//     demands (gated by AllocsPerRun tests). These carry the new
//     time-series — session wall time, solve wall time, shard round-trips,
//     HTTP handler latency.
//   - Sampled metrics (CounterFunc, GaugeFunc): closures evaluated at scrape
//     time over the same atomic counters the /healthz and results `stats`
//     snapshots read, so every counter family the JSON views report is also
//     a Prometheus series, with one source of truth and no double counting.
//
// Exposition follows the Prometheus text format version 0.0.4: families are
// emitted in sorted order with one # HELP / # TYPE header each, series
// within a family sorted by label set, histograms as cumulative _bucket
// series plus _sum and _count. Deterministic output order is part of the
// contract — tests diff scrapes byte for byte.
package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Label is one constant key="value" pair attached to a series at
// registration. Labels are fixed for the life of the series (there is no
// dynamic label lookup on the hot path — register one series per label
// combination instead).
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing series. All methods are nil-safe so
// instrumented code never has to check whether telemetry is wired; a nil
// counter costs one predictable branch.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must not be negative; counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a series that can go up and down. Nil-safe like Counter.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add shifts the gauge by delta (CAS loop; contended adds retry).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are chosen at
// registration and never change, so Observe is a linear scan over a small
// array plus three atomic adds — no allocation, no locks. Nil-safe.
type Histogram struct {
	upper   []float64      // ascending bucket upper bounds (an implicit +Inf bucket follows)
	counts  []atomic.Int64 // len(upper)+1
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// DefBuckets is the default latency bucket ladder, in seconds: 100µs to 30s
// in roughly 2.5x steps — wide enough to hold both a 344µs PES session and a
// multi-second Oracle shard round-trip.
var DefBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSeconds records a duration given in nanoseconds, converted to
// seconds (the Prometheus base unit for time).
func (h *Histogram) ObserveSeconds(ns int64) { h.Observe(float64(ns) / 1e9) }

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// metricKind is the exposition TYPE of a series.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered time series.
type series struct {
	family string // metric family name (without label block)
	labels string // rendered {k="v",...} block, "" when unlabeled
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	sample  func() float64 // CounterFunc / GaugeFunc
}

// family groups series sharing a name for exposition.
type familyEntry struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds the process's (or one subsystem's) metric families and
// renders them in the Prometheus text format. Registration is cheap but
// synchronized — do it at wiring time, not on hot paths. Safe for concurrent
// registration and scraping.
type Registry struct {
	mu       sync.Mutex
	families map[string]*familyEntry
	names    []string // sorted family names
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*familyEntry)}
}

// validName reports whether a metric or label name fits the Prometheus
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// renderLabels renders a deterministic {k="v",...} block (sorted by key).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	out := "{"
	for i, l := range sorted {
		if i > 0 {
			out += ","
		}
		out += l.Key + "=" + strconv.Quote(l.Value)
	}
	return out + "}"
}

// register adds a series, panicking on an invalid name, a kind conflict
// within a family, or a duplicate (family, labels) pair — all programmer
// errors at wiring time, not runtime conditions.
func (r *Registry) register(s *series, help string, labels []Label) {
	if !validName(s.family) {
		panic(fmt.Sprintf("obs: invalid metric name %q", s.family))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l.Key, s.family))
		}
	}
	s.labels = renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[s.family]
	if !ok {
		f = &familyEntry{name: s.family, help: help, kind: s.kind}
		r.families[s.family] = f
		r.names = append(r.names, s.family)
		sort.Strings(r.names)
	}
	if f.kind != s.kind {
		panic(fmt.Sprintf("obs: metric family %s registered as both %s and %s", s.family, f.kind, s.kind))
	}
	for _, prev := range f.series {
		if prev.labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate series %s%s", s.family, s.labels))
		}
	}
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
}

// Counter registers and returns a native counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(&series{family: name, kind: kindCounter, counter: c}, help, labels)
	return c
}

// Gauge registers and returns a native gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(&series{family: name, kind: kindGauge, gauge: g}, help, labels)
	return g
}

// CounterFunc registers a counter series sampled from fn at scrape time.
// Use it to expose an existing atomic counter (a Stats snapshot field)
// without a second write path; fn must be monotonic for the series to obey
// counter semantics.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&series{family: name, kind: kindCounter, sample: fn}, help, labels)
}

// GaugeFunc registers a gauge series sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&series{family: name, kind: kindGauge, sample: fn}, help, labels)
}

// Histogram registers and returns a native histogram with the given
// ascending bucket upper bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets not ascending", name))
		}
	}
	h := &Histogram{upper: buckets, counts: make([]atomic.Int64, len(buckets)+1)}
	r.register(&series{family: name, kind: kindHistogram, hist: h}, help, labels)
	return h
}

// formatFloat renders a sample the way Prometheus expects (integers without
// an exponent, everything else in Go's shortest form).
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// innerLabels re-renders a series' label block with one extra label (used
// for the histogram le label); block is the rendered "{...}" or "".
func withLabel(block, key, value string) string {
	extra := key + "=" + strconv.Quote(value)
	if block == "" {
		return "{" + extra + "}"
	}
	return block[:len(block)-1] + "," + extra + "}"
}

// WritePrometheus renders every registered family in the text exposition
// format, families sorted by name, series sorted by label block.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	fams := make([]*familyEntry, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		// Snapshot the series slice; the metrics themselves are atomic.
		fams = append(fams, &familyEntry{name: f.name, help: f.help, kind: f.kind, series: append([]*series(nil), f.series...)})
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := writeSeries(w, f.name, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, name string, s *series) error {
	switch s.kind {
	case kindCounter, kindGauge:
		var v float64
		switch {
		case s.sample != nil:
			v = s.sample()
		case s.counter != nil:
			v = float64(s.counter.Value())
		default:
			v = s.gauge.Value()
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, s.labels, formatFloat(v))
		return err
	default:
		h := s.hist
		cum := int64(0)
		for i, ub := range h.upper {
			cum += h.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(s.labels, "le", formatFloat(ub)), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.upper)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(s.labels, "le", "+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatFloat(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, h.Count())
		return err
	}
}

// Handler serves the registry as GET /metrics content
// (text/plain; version=0.0.4).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// DebugHandler returns the live-profiling surface served on -debug-addr:
// the full net/http/pprof tree under /debug/pprof/ and expvar under
// /debug/vars. Never expose this on a public listener — it is opt-in and on
// a separate address for exactly that reason.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}
