// Command perfbench is the repository benchmark: it drives the PES
// simulator and its serving stack through one of four workloads and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) declared
// in BENCHMARK.json at the repository root.
//
//	go run . --workload sweep --seed 1 --seconds 10 --trace 0
//
// Every input (applications, trace seeds, campaigns) is generated from
// --seed; the program under test receives only those generated inputs. Each
// run checks the program's outputs and counts every failed, refused or
// incorrect operation. The last line of standard output is one JSON object:
//
//	{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
//
// Preceding lines are a human-readable report: the host stamp, every metric
// by name with its unit, failed_frac, and (traced runs) the tracing overhead.
// Spans of a traced run are kept in memory and written at exit to
// .bench_build/traces/ under the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every untraced run reports, with
// their units, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"sessions_per_s", "1/s"},
	{"campaigns_per_s", "1/s"},
	{"campaign_ms_p50", "ms"},
	{"campaign_ms_p95", "ms"},
	{"peak_rss_mb", "MB"},
	{"sim_pes_energy_saving_pct", "%"},
	{"sim_pes_qos_violation_pct", "%"},
}

// run is what one workload reports.
type run struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int64
	failed    int64
	// problems lists every failed check (empty on a correct run).
	problems []string
	// notes are extra human-readable report lines.
	notes []string
}

func newRun() *run {
	return &run{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail records a failed check.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// note records a report line.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// opts carries the command line to a workload.
type opts struct {
	seed    int64
	seconds float64
	traced  bool
	host    hostInfo
	spans   *tracer
}

var workloads = map[string]func(opts) (*run, error){
	"sweep":   runSweep,
	"serve":   runServe,
	"restart": runRestart,
	"cluster": runCluster,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: sweep, serve, restart or cluster")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measurement length in seconds")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload sweep|serve|restart|cluster, --seconds > 0, --trace 0|1\n")
		return 2
	}
	// The store reports corruption through the standard logger and
	// httptest reports connection errors the same way; both are counted
	// by the checks instead, so the measured processes do no stderr I/O.
	log.SetOutput(io.Discard)

	o := opts{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, host: probeHost()}
	if o.traced {
		o.spans = newTracer()
	}
	fmt.Fprintf(stdout, "host: nproc=%d gomaxprocs=%d go=%s effective_cores=%.2f\n",
		o.host.nproc, o.host.gomaxprocs, o.host.goVersion, o.host.effectiveCores)
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *traceFlag)

	begun := time.Now()
	r, err := fn(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if _, ok := r.e2e["peak_rss_mb"]; !ok {
		r.e2e["peak_rss_mb"] = peakRSSMB()
	}
	for _, line := range r.notes {
		fmt.Fprintln(stdout, line)
	}
	for _, p := range r.problems {
		fmt.Fprintf(stdout, "FAILED CHECK: %s\n", p)
	}

	out := output{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
		out.Failed++
		fmt.Fprintln(stdout, "FAILED CHECK: no operation was attempted")
	}
	fmt.Fprintf(stdout, "failed_frac %.6f ratio (%d of %d)\n",
		float64(out.Failed)/float64(out.Attempted), out.Failed, out.Attempted)
	if o.traced {
		r.layers["host.nproc"] = float64(o.host.nproc)
		r.layers["host.gomaxprocs"] = float64(o.host.gomaxprocs)
		r.layers["host.effective_cores"] = o.host.effectiveCores
		for _, m := range perLayer {
			out.Metrics[m.name] = metric{Value: r.layers[m.name], Unit: m.unit}
		}
		if path, err := o.spans.writeFile(*workload, *seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "spans: %d written to %s\n", o.spans.len(), path)
		}
	} else {
		for _, m := range endToEnd {
			v, ok := r.e2e[m.name]
			if !ok {
				fmt.Fprintf(stderr, "perfbench: %s did not report %s\n", *workload, m.name)
				return 1
			}
			out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	}
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", name, out.Metrics[name].Value, out.Metrics[name].Unit)
	}
	fmt.Fprintf(stdout, "total wall %.1fs\n", time.Since(begun).Seconds())
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
