package server

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/memo"
	"repro/internal/sessions"
)

// The server trains a predictor at construction, so tests share one small
// instance (plus dedicated ones where clean counters matter).
var (
	srvOnce sync.Once
	srv     *Server
	srvErr  error
)

func smallConfig() Config {
	return Config{
		Experiments: experiments.Config{TrainTracesPerApp: 2, EvalTracesPerApp: 1, Parallel: 2},
		JobWorkers:  2,
	}
}

func testServer(t *testing.T) *Server {
	t.Helper()
	if testing.Short() {
		t.Skip("server tests train a predictor")
	}
	srvOnce.Do(func() { srv, srvErr = New(smallConfig()) })
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srv
}

func TestCampaignExpansionDefaults(t *testing.T) {
	s := testServer(t)
	plan, err := Campaign{}.Expand(s.Setup())
	if err != nil {
		t.Fatal(err)
	}
	// 18 applications × 1 seed × 5 schedulers.
	if got, want := len(plan.Sessions), 18*5; got != want {
		t.Errorf("default campaign expands to %d sessions, want %d", got, want)
	}
	if len(plan.Meta) != len(plan.Sessions) {
		t.Errorf("meta (%d) not aligned with sessions (%d)", len(plan.Meta), len(plan.Sessions))
	}
	if plan.Platform != "Exynos5410" {
		t.Errorf("default platform %q", plan.Platform)
	}
}

func TestCampaignExpansionSweep(t *testing.T) {
	s := testServer(t)
	c := Campaign{
		Platform:   "tx2",
		Apps:       []string{"cnn"},
		TraceSeeds: []int64{1, 2},
		Schedulers: []string{"ebs", "PES"},
		// 0.7 is the base threshold, so it must be deduplicated.
		Sweep: &Sweep{ConfidenceThresholds: []float64{0.9, 0.5, 0.7}},
	}
	plan, err := c.Expand(s.Setup())
	if err != nil {
		t.Fatal(err)
	}
	// Per seed: EBS + PES at base, plus PES at 0.5 and 0.9.
	if got, want := len(plan.Sessions), 2*(2+2); got != want {
		t.Fatalf("sweep campaign expands to %d sessions, want %d", got, want)
	}
	var labels []string
	for _, m := range plan.Meta[:4] {
		labels = append(labels, m.Label)
	}
	if got, want := strings.Join(labels, ","), "EBS,PES,PES@50%,PES@90%"; got != want {
		t.Errorf("labels %q, want %q", got, want)
	}
	for _, m := range plan.Meta {
		if m.Platform != "TX2Parker" {
			t.Fatalf("session platform %q, want TX2Parker", m.Platform)
		}
		if m.Scheduler == sessions.PES && m.ConfidenceThreshold == 0 {
			t.Errorf("PES session missing confidence threshold: %+v", m)
		}
	}
}

func TestCampaignValidation(t *testing.T) {
	s := testServer(t)
	cases := map[string]Campaign{
		"bad platform":       {Platform: "pixel9"},
		"bad app":            {Apps: []string{"nosuchapp"}},
		"bad scheduler":      {Schedulers: []string{"nosuchsched"}},
		"bad threshold":      {Sweep: &Sweep{ConfidenceThresholds: []float64{1.5}}},
		"bad oracle version": {OracleVersion: "v3"},
	}
	for name, c := range cases {
		if _, err := c.Expand(s.Setup()); err == nil {
			t.Errorf("%s: expansion succeeded, want error", name)
		}
	}
}

// TestCampaignOracleVersionStamping checks that the campaign-level oracle
// version lands on Oracle sessions only — in the metadata, the wire specs,
// and the memo keys — and that the default is the server's configured
// version (v2 unless the process runs -oracle=v1).
func TestCampaignOracleVersionStamping(t *testing.T) {
	s := testServer(t)
	c := Campaign{Apps: []string{"cnn"}, Schedulers: []string{"Oracle", "Ondemand"}, OracleVersion: "v1"}
	plan, err := c.Expand(s.Setup())
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range plan.Meta {
		spec := plan.Specs[i]
		if m.Scheduler == sessions.Oracle {
			if m.OracleVersion != "v1" || spec.OracleVersion != "v1" {
				t.Errorf("Oracle session not stamped v1: meta=%q spec=%q", m.OracleVersion, spec.OracleVersion)
			}
			if key := plan.Sessions[i].Key; !strings.Contains(key.Variant, "oracle=v1") {
				t.Errorf("Oracle memo key missing version: %q", key.Variant)
			}
		} else if m.OracleVersion != "" || spec.OracleVersion != "" {
			t.Errorf("%s session stamped with oracle version %q/%q", m.Scheduler, m.OracleVersion, spec.OracleVersion)
		}
	}
	// Default: the server's configured version (v2 here).
	plan2, err := Campaign{Apps: []string{"cnn"}, Schedulers: []string{"Oracle"}}.Expand(s.Setup())
	if err != nil {
		t.Fatal(err)
	}
	if got := plan2.Specs[0].OracleVersion; got != "v2" {
		t.Errorf("default oracle version on the wire = %q, want v2", got)
	}
}

func TestPlanTables(t *testing.T) {
	s := testServer(t)
	c := Campaign{Apps: []string{"cnn", "ebay"}, TraceSeeds: []int64{1, 2}, Schedulers: []string{"Interactive", "EBS"}}
	plan, err := c.Expand(s.Setup())
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.Setup().Runner.Run(plan.Sessions)
	if err != nil {
		t.Fatal(err)
	}
	tables := plan.Tables(results)
	if len(tables) != 3 {
		t.Fatalf("got %d tables, want energy + qos + latency percentiles", len(tables))
	}
	for _, tab := range tables[:2] {
		if got, want := strings.Join(tab.Columns, ","), "Interactive,EBS"; got != want {
			t.Errorf("%s columns %q, want %q", tab.ID, got, want)
		}
		if len(tab.Rows) != 2 {
			t.Errorf("%s has %d rows, want one per app", tab.ID, len(tab.Rows))
		}
	}
	pct := tables[2]
	if pct.ID != "latency_percentiles" {
		t.Fatalf("third table is %q, want latency_percentiles", pct.ID)
	}
	if len(pct.Rows) != 2 {
		t.Fatalf("percentile table has %d rows, want one per scheduler", len(pct.Rows))
	}
	for _, row := range pct.Rows {
		p50, p95, p99 := row.Values[0], row.Values[1], row.Values[2]
		if p50 <= 0 || p95 < p50 || p99 < p95 {
			t.Errorf("%s percentiles not monotone: p50=%g p95=%g p99=%g", row.Label, p50, p95, p99)
		}
		if r95, r99 := row.Values[3], row.Values[4]; r95 <= 0 || r99 < r95 {
			t.Errorf("%s QoS ratios not monotone: p95=%g p99=%g", row.Label, r95, r99)
		}
		if viol := row.Values[5]; viol < 0 || viol > 100 {
			t.Errorf("%s violation%% out of range: %g", row.Label, viol)
		}
	}
	energy := tables[0]
	for _, row := range energy.Rows {
		for i, v := range row.Values {
			if v <= 0 {
				t.Errorf("energy[%s][%s] = %g, want > 0", row.Label, energy.Columns[i], v)
			}
		}
	}
}

// waitDone polls the status endpoint until the job reaches a terminal state.
func waitDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(base + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Status != StatusQueued && st.Status != StatusRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s still %s (%d/%d) at deadline", id, st.Status, st.Completed, st.Sessions)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHTTPCampaignLifecycle(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Liveness first.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Workers < 1 {
		t.Fatalf("healthz = %+v", h)
	}

	// Submit a small campaign.
	body := `{"apps":["cnn"],"trace_seeds":[1],"schedulers":["Interactive","EBS"]}`
	resp, err = http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Sessions != 2 {
		t.Fatalf("campaign expanded to %d sessions, want 2", st.Sessions)
	}

	final := waitDone(t, ts.URL, st.ID)
	if final.Status != StatusDone {
		t.Fatalf("campaign ended %s: %s", final.Status, final.Error)
	}
	if final.Completed != final.Sessions {
		t.Errorf("progress shows %d/%d completed", final.Completed, final.Sessions)
	}

	resp, err = http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	var res Results
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(res.Rows) != 2 || len(res.Tables) != 3 {
		t.Fatalf("results: %d rows, %d tables", len(res.Rows), len(res.Tables))
	}
	for _, row := range res.Rows {
		if row.Result == nil || row.Result.TotalEnergyMJ <= 0 {
			t.Errorf("row %+v has no result", row.SessionMeta)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/v1/campaigns/nosuchjob"); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
	if code := get("/v1/campaigns/nosuchjob/results"); code != http.StatusNotFound {
		t.Errorf("unknown job results = %d, want 404", code)
	}
	if code := get("/v1/figures/nosuchfig"); code != http.StatusNotFound {
		t.Errorf("unknown figure = %d, want 404", code)
	}
	for _, body := range []string{"{nonsense", `{"apps":["nosuchapp"]}`, `{"bogus_field":1}`} {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q = %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestFigureEndpointAndCache(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/figures/fig2")
	if err != nil {
		t.Fatal(err)
	}
	var tab experiments.Table
	if err := json.NewDecoder(resp.Body).Decode(&tab); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tab.ID != "fig2" || len(tab.Rows) != 3 {
		t.Fatalf("fig2 = %+v", tab)
	}

	// The figure cache computes each figure once, and aliases share one slot.
	first, err := s.figure("overhead")
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.figure("sec6.3")
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("figure aliases were computed separately instead of cached")
	}
}

func TestShutdownCancelsQueuedJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("server tests train a predictor")
	}
	cfg := smallConfig()
	cfg.JobWorkers = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With one worker, at most one campaign runs at a time; the rest wait in
	// the queue and must be canceled (not run) once shutdown begins.
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := s.Submit(Campaign{Apps: []string{"cnn"}, Schedulers: []string{"EBS", "Ondemand", "Interactive"}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	s.Close()
	for _, id := range ids {
		j, ok := s.jobByID(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		st := j.snapshot()
		switch st.Status {
		case StatusDone, StatusCanceled:
		default:
			t.Errorf("after Close, job %s is %s, want done or canceled", id, st.Status)
		}
	}
	if _, err := s.Submit(Campaign{}); err == nil {
		t.Error("Submit after Close succeeded, want error")
	}
	// Close is idempotent.
	s.Close()
}

func TestJobEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("server tests train a predictor")
	}
	cfg := smallConfig()
	cfg.JobWorkers = 1
	cfg.QueueDepth = 1
	cfg.MaxJobs = 1 // clamped up to QueueDepth+JobWorkers = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	submitAndWait := func() string {
		t.Helper()
		st, err := s.Submit(Campaign{Apps: []string{"cnn"}, Schedulers: []string{"EBS"}})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(time.Minute)
		for {
			j, ok := s.jobByID(st.ID)
			if !ok {
				t.Fatalf("job %s disappeared while waiting", st.ID)
			}
			if cur := j.snapshot(); terminal(cur.Status) {
				if cur.Status != StatusDone {
					t.Fatalf("job %s ended %s: %s", st.ID, cur.Status, cur.Error)
				}
				return st.ID
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s did not finish", st.ID)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	id1 := submitAndWait()
	id2 := submitAndWait()
	id3 := submitAndWait()
	if _, ok := s.jobByID(id1); ok {
		t.Errorf("oldest finished job %s survived past MaxJobs", id1)
	}
	for _, id := range []string{id2, id3} {
		if _, ok := s.jobByID(id); !ok {
			t.Errorf("job %s was evicted while within MaxJobs", id)
		}
	}
}

// TestResultsFiltersAndNDJSON exercises the server-side row filters and the
// NDJSON streaming mode of the results endpoint: filtered rows match only
// the selected app/scheduler, bad filter values answer 400, and NDJSON
// streams exactly the filtered rows one JSON document per line.
func TestResultsFiltersAndNDJSON(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"apps":["cnn","ebay"],"trace_seeds":[1],"schedulers":["Interactive","EBS"]}`
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fin := waitDone(t, ts.URL, st.ID); fin.Status != StatusDone {
		t.Fatalf("campaign ended %s: %s", fin.Status, fin.Error)
	}
	base := ts.URL + "/v1/campaigns/" + st.ID + "/results"

	fetch := func(url string) Results {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s returned %d", url, resp.StatusCode)
		}
		var res Results
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Unfiltered: 2 apps × 2 schedulers; tables cover the full campaign.
	if res := fetch(base); len(res.Rows) != 4 || len(res.Tables) != 3 {
		t.Fatalf("unfiltered: %d rows, %d tables, want 4 rows + 3 tables", len(res.Rows), len(res.Tables))
	}

	// App filter (and tables still cover the full campaign).
	res := fetch(base + "?app=cnn")
	if len(res.Rows) != 2 {
		t.Fatalf("app filter: %d rows, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.App != "cnn" {
			t.Errorf("app filter leaked row %+v", row.SessionMeta)
		}
	}
	if len(res.Tables) != 3 || len(res.Tables[0].Rows) != 2 {
		t.Errorf("filtered response must keep full-campaign tables, got %d tables", len(res.Tables))
	}

	// Combined filter, case-insensitive scheduler.
	res = fetch(base + "?app=ebay&scheduler=ebs")
	if len(res.Rows) != 1 || res.Rows[0].App != "ebay" || res.Rows[0].Scheduler != "EBS" {
		t.Fatalf("combined filter rows = %+v, want one ebay/EBS row", res.Rows)
	}

	// Unknown filter values are 400s.
	for _, q := range []string{"?app=nosuchapp", "?scheduler=nosuchsched"} {
		resp, err := http.Get(base + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s returned %d, want 400", q, resp.StatusCode)
		}
	}

	// NDJSON: one row per line, filter honored, streaming content type.
	resp, err = http.Get(base + "?scheduler=Interactive&format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("NDJSON content type = %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	var rows []ResultRow
	for dec.More() {
		var row ResultRow
		if err := dec.Decode(&row); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 2 {
		t.Fatalf("NDJSON streamed %d rows, want 2", len(rows))
	}
	for _, row := range rows {
		if row.Scheduler != "Interactive" || row.Result == nil || row.Result.TotalEnergyMJ <= 0 {
			t.Errorf("NDJSON row %+v malformed", row.SessionMeta)
		}
	}
}

// TestSubmitBuildsNoTraces asserts admission on a default (non-cluster)
// server expands a campaign to wire specs and metadata only: no session is
// built and no trace is generated or even looked up until the job runs,
// and then the executing worker looks up one trace per session.
func TestSubmitBuildsNoTraces(t *testing.T) {
	shared := testServer(t)
	// A hand-built server with no campaign workers: the job stays queued
	// until the test starts one, so the admission-time check cannot race it.
	s := &Server{
		cfg:     Config{QueueDepth: 1, MaxJobs: 16},
		setup:   shared.setup,
		coord:   shared.coord,
		log:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		runCtx:  context.Background(),
		jobs:    make(map[string]*job),
		queue:   make(chan *job, 1),
		figures: memo.New[string, *experiments.Table](),
	}
	arts := shared.Setup().Artifacts
	lookups := func() int64 { st := arts.Stats(); return st.TraceBuilds + st.TraceHits }
	before, lookupsBefore := arts.Stats().TraceBuilds, lookups()
	c := Campaign{Apps: []string{"twitter"}, TraceSeeds: []int64{991, 992}, Schedulers: []string{"Interactive", "PES"}}
	st, err := s.Submit(c)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 4 {
		t.Fatalf("campaign expanded to %d sessions, want 4", st.Sessions)
	}
	if after := arts.Stats().TraceBuilds; after != before {
		t.Errorf("Submit generated %d traces, want 0", after-before)
	}
	if after := lookups(); after != lookupsBefore {
		t.Errorf("Submit looked up %d traces, want 0", after-lookupsBefore)
	}
	j, _ := s.jobByID(st.ID)
	if j.plan.Sessions != nil {
		t.Errorf("Submit built %d sessions, want none", len(j.plan.Sessions))
	}
	for i, spec := range j.plan.Specs {
		m := j.plan.Meta[i]
		if spec.App != m.App || spec.TraceSeed != m.TraceSeed || spec.Scheduler != m.Scheduler || spec.Platform != "Exynos5410" {
			t.Errorf("spec %d (%+v) not aligned with meta (%+v)", i, spec, m)
		}
	}
	if _, err := s.Submit(Campaign{Apps: []string{"nosuchapp"}}); err == nil {
		t.Error("Submit accepted an unknown app")
	}

	s.wg.Add(1)
	go s.worker()
	if got := pollTerminal(t, s, st.ID); got.Status != StatusDone {
		t.Fatalf("campaign %s: %s (%s)", got.ID, got.Status, got.Error)
	}
	close(s.queue)
	s.wg.Wait()
	if after := lookups(); after != lookupsBefore+int64(st.Sessions) {
		t.Errorf("running the campaign looked up %d traces, want %d (one per session)", after-lookupsBefore, st.Sessions)
	}
}

// TestClusterMembershipEndpoints exercises the coordinator's worker
// registration API: register, list, deregister, the error paths, and the
// absence of the endpoints on a non-cluster server.
func TestClusterMembershipEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("server tests train a predictor")
	}
	coord, err := cluster.New(cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cfg := smallConfig()
	cfg.Cluster = coord
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, membersResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/cluster/workers", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m membersResponse
		_ = json.NewDecoder(resp.Body).Decode(&m)
		return resp, m
	}

	resp, m := post(`{"addr": "localhost:9001"}`)
	if resp.StatusCode != http.StatusOK || len(m.Members) != 1 || m.Members[0].Addr != "localhost:9001" {
		t.Fatalf("register = %d %+v", resp.StatusCode, m)
	}
	if m.Members[0].Source != cluster.SourceRegistered || !m.Members[0].Healthy {
		t.Errorf("registered member state = %+v", m.Members[0])
	}
	// Registration is idempotent.
	if resp, m = post(`{"addr": "localhost:9001"}`); resp.StatusCode != http.StatusOK || len(m.Members) != 1 {
		t.Errorf("re-register = %d %+v", resp.StatusCode, m)
	}
	// Bad requests are client errors, not registrations.
	for _, bad := range []string{`{`, `{"addr": ""}`, `{"addr": "x", "extra": 1}`} {
		if resp, _ := post(bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q = %d, want 400", bad, resp.StatusCode)
		}
	}

	// The coordinator's stats surface the member on /healthz.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Cluster == nil || len(h.Cluster.Members) != 1 || h.Cluster.Workers != 1 {
		t.Errorf("healthz cluster stats = %+v", h.Cluster)
	}

	// List, then deregister.
	resp, err = http.Get(ts.URL + "/v1/cluster/workers")
	if err != nil {
		t.Fatal(err)
	}
	var listed membersResponse
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listed.Members) != 1 {
		t.Errorf("GET workers = %+v", listed)
	}
	del := func(query string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/cluster/workers"+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := del(""); got != http.StatusBadRequest {
		t.Errorf("DELETE without addr = %d, want 400", got)
	}
	if got := del("?addr=unknown:1"); got != http.StatusNotFound {
		t.Errorf("DELETE unknown = %d, want 404", got)
	}
	if got := del("?addr=localhost:9001"); got != http.StatusOK {
		t.Errorf("DELETE member = %d, want 200", got)
	}
	if ws := coord.Workers(); len(ws) != 0 {
		t.Errorf("membership after deregister = %v, want empty", ws)
	}

	// A non-cluster server does not serve the membership API.
	plain := httptest.NewServer(testServer(t).Handler())
	defer plain.Close()
	if resp, err := http.Get(plain.URL + "/v1/cluster/workers"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("membership API on a non-cluster server = %d, want 404", resp.StatusCode)
		}
	}
}
