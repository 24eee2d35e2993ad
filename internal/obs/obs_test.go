package obs

import (
	"bufio"
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pes_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("pes_test_depth", "a gauge")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestNilMetricsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var rec *Recorder
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveSeconds(100)
	rec.Record(Span{Name: "x"})
	rec.Merge([]Span{{Name: "y"}})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	if rec.Timeline() != nil || rec.TraceID() != "" {
		t.Fatal("nil recorder must read empty")
	}
}

func TestHistogramBucketsSumToCount(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("pes_test_seconds", "latency", []float64{0.001, 0.01, 0.1, 1})
	vals := []float64{0.0005, 0.001, 0.002, 0.05, 0.5, 2, 100}
	for _, v := range vals {
		h.Observe(v)
	}
	if h.Count() != int64(len(vals)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(vals))
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if math.Abs(h.Sum()-sum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), sum)
	}
	var bucketTotal int64
	for i := range h.counts {
		bucketTotal += h.counts[i].Load()
	}
	if bucketTotal != h.Count() {
		t.Fatalf("bucket counts sum to %d, want _count %d", bucketTotal, h.Count())
	}
	// 0.0005 and 0.001 land in le=0.001 (upper bound inclusive).
	if got := h.counts[0].Load(); got != 2 {
		t.Fatalf("first bucket = %d, want 2", got)
	}
	// 2 and 100 land in +Inf.
	if got := h.counts[4].Load(); got != 2 {
		t.Fatalf("+Inf bucket = %d, want 2", got)
	}
}

// parseExposition is a minimal Prometheus text-format 0.0.4 parser: it
// validates line grammar and returns sample name → value. It fails the test
// on any malformed line.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) < 4 {
				t.Fatalf("malformed comment line: %q", line)
			}
			if fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "histogram":
				default:
					t.Fatalf("unknown TYPE %q in %q", fields[3], line)
				}
				typed[fields[2]] = fields[3]
			}
			continue
		}
		// sample line: name{labels} value  |  name value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("unbalanced label block in %q", line)
			}
			name = key[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := typed[name]; !ok {
			if _, ok := typed[base]; !ok {
				t.Fatalf("sample %q has no preceding # TYPE", line)
			}
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("duplicate series %q", key)
		}
		samples[key] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pes_jobs_total", "jobs", L("kind", "done"))
	c.Add(7)
	r.Counter("pes_jobs_total", "jobs", L("kind", "failed")).Add(2)
	r.GaugeFunc("pes_queue_depth", "depth", func() float64 { return 3 })
	h := r.Histogram("pes_lat_seconds", "latency", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	samples := parseExposition(t, text)

	want := map[string]float64{
		`pes_jobs_total{kind="done"}`:       7,
		`pes_jobs_total{kind="failed"}`:     2,
		`pes_queue_depth`:                   3,
		`pes_lat_seconds_bucket{le="0.01"}`: 1,
		`pes_lat_seconds_bucket{le="0.1"}`:  2,
		`pes_lat_seconds_bucket{le="+Inf"}`: 3,
		`pes_lat_seconds_count`:             3,
	}
	for k, v := range want {
		if got, ok := samples[k]; !ok || got != v {
			t.Errorf("series %s = %v (present=%v), want %v\nfull exposition:\n%s", k, got, ok, v, text)
		}
	}
	if got := samples["pes_lat_seconds_sum"]; math.Abs(got-5.055) > 1e-9 {
		t.Errorf("histogram sum = %v, want 5.055", got)
	}

	// Deterministic: two scrapes are byte-identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != text {
		t.Error("two scrapes of an unchanged registry differ")
	}
}

func TestRegistryPanicsOnBadRegistration(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("invalid name", func() { NewRegistry().Counter("9bad", "") })
	expectPanic("invalid label", func() { NewRegistry().Counter("ok_total", "", L("9bad", "v")) })
	expectPanic("kind conflict", func() {
		r := NewRegistry()
		r.Counter("pes_x", "")
		r.Gauge("pes_x", "")
	})
	expectPanic("duplicate series", func() {
		r := NewRegistry()
		r.Counter("pes_x", "", L("a", "b"))
		r.Counter("pes_x", "", L("a", "b"))
	})
	expectPanic("non-ascending buckets", func() {
		NewRegistry().Histogram("pes_h", "", []float64{1, 1})
	})
}

func TestMetricsRaceClean(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pes_race_total", "")
	g := r.Gauge("pes_race_gauge", "")
	h := r.Histogram("pes_race_seconds", "", nil)
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(seed*perWorker+i) * 1e-6)
			}
		}(w)
	}
	// Concurrent scrapes while writers run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			_ = r.WritePrometheus(&b)
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != workers*perWorker {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if g.Value() != workers*perWorker {
		t.Fatalf("gauge = %v, want %d", g.Value(), workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
}

// The hot-path increments must not allocate: they sit inside the
// per-session simulate path that PR 4 drove to zero allocations.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pes_alloc_total", "")
	g := r.Gauge("pes_alloc_gauge", "")
	h := r.Histogram("pes_alloc_seconds", "", nil)
	var nilC *Counter
	var nilH *Histogram

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(1) }},
		{"Gauge.Add", func() { g.Add(1) }},
		{"Histogram.Observe", func() { h.Observe(0.003) }},
		{"Histogram.ObserveSeconds", func() { h.ObserveSeconds(12345) }},
		{"nil Counter.Inc", func() { nilC.Inc() }},
		{"nil Histogram.Observe", func() { nilH.Observe(1) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		7:      "7",
		-3:     "-3",
		1.5:    "1.5",
		0.0001: "0.0001",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestDebugHandlerRoutes(t *testing.T) {
	h := DebugHandler()
	if h == nil {
		t.Fatal("nil debug handler")
	}
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("GET", path, nil))
		if rw.Code != 200 {
			t.Errorf("%s: status %d, want 200", path, rw.Code)
		}
	}
}

// TestFuncMetricsThroughHandler serves a registry of sampled (func-backed)
// metrics over the HTTP handler: the closures must run at scrape time, every
// scrape, and the exposition must carry the text content type.
func TestFuncMetricsThroughHandler(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.CounterFunc("pes_func_total", "sampled counter", func() float64 {
		calls++
		return float64(calls)
	})
	r.GaugeFunc("pes_func_gauge", "sampled gauge", func() float64 { return 2.5 }, L("shard", "a"))
	h := r.Handler()
	scrape := func() string {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
		if rw.Code != 200 {
			t.Fatalf("status %d, want 200", rw.Code)
		}
		if ct := rw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
		}
		return rw.Body.String()
	}
	if body := scrape(); !strings.Contains(body, "pes_func_total 1\n") {
		t.Errorf("first scrape did not sample the counter closure:\n%s", body)
	}
	body := scrape()
	if !strings.Contains(body, "pes_func_total 2\n") {
		t.Errorf("second scrape did not re-sample the counter closure:\n%s", body)
	}
	if !strings.Contains(body, `pes_func_gauge{shard="a"} 2.5`+"\n") {
		t.Errorf("labelled gauge func missing from scrape:\n%s", body)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("pes_bench_seconds", "", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.00035)
	}
	if h.Count() != int64(b.N) {
		b.Fatal("count mismatch")
	}
}

func ExampleRegistry_WritePrometheus() {
	r := NewRegistry()
	r.Counter("pes_sessions_total", "Sessions simulated.").Add(42)
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	fmt.Print(b.String())
	// Output:
	// # HELP pes_sessions_total Sessions simulated.
	// # TYPE pes_sessions_total counter
	// pes_sessions_total 42
}
