package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/memo"
	"repro/internal/store"
)

// pollTerminal waits (in-process, no HTTP) for a job to leave the queue.
func pollTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		j, ok := s.jobByID(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		st := j.snapshot()
		if terminal(st.Status) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s still %s (%d/%d) at deadline", id, st.Status, st.Completed, st.Sessions)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// normalizeResult re-encodes a result with the solver wall time zeroed — the
// only nondeterministic byte of a Result (store-hit sessions replay the wall
// time of the run that produced them; fresh simulations measure their own).
func normalizeResult(t *testing.T, res *engine.Result) []byte {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if solver, ok := m["Solver"].(map[string]any); ok {
		solver["wall_ns"] = 0
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestJournalCrashResumeTailOnly is the server half of the resilience
// property suite: kill the store at a randomized record mid-campaign, boot a
// fresh server on the same directory, and assert the campaign resumes under
// its original ID, re-simulates only the missing tail (persisted sessions
// come back as store hits), and serves results byte-identical to an
// uninterrupted run.
func TestJournalCrashResumeTailOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("server tests train a predictor")
	}
	campaign := Campaign{Apps: []string{"cnn", "ebay"}} // 2 apps × 5 schedulers

	// Uninterrupted reference on the shared (storeless) server.
	ref := testServer(t)
	refSt, err := ref.Submit(campaign)
	if err != nil {
		t.Fatal(err)
	}
	if got := pollTerminal(t, ref, refSt.ID); got.Status != StatusDone {
		t.Fatalf("reference campaign %s: %s (%s)", got.ID, got.Status, got.Error)
	}
	refJob, _ := ref.jobByID(refSt.ID)
	want := make([][]byte, len(refJob.results))
	for i, res := range refJob.results {
		want[i] = normalizeResult(t, res)
	}

	for trial := 0; trial < 3; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)))
			dir := t.TempDir()
			in := chaos.New(chaos.Config{Seed: int64(trial) + 1})
			st, err := store.Open(dir, store.WithFileWrapper(in.WrapFile))
			if err != nil {
				t.Fatal(err)
			}
			cfg := smallConfig()
			cfg.Experiments.Store = st
			s1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st1, err := s1.Submit(campaign)
			if err != nil {
				t.Fatal(err)
			}
			// Arm only after submit: setup artifacts and the spec record must
			// land, the crash belongs to the campaign's result writes. The
			// crash point stays below the 10 result records plus the terminal
			// state, so the journal is guaranteed non-terminal on disk.
			in.ArmCrashAfter(int64(1 + rng.Intn(8)))
			// In-memory the campaign still completes — the store is a cache,
			// not the source of truth, so failed Puts are logged, not fatal.
			if got := pollTerminal(t, s1, st1.ID); got.Status != StatusDone {
				t.Fatalf("pre-crash campaign %s: %s (%s)", got.ID, got.Status, got.Error)
			}
			if !in.Stats().Crashed {
				t.Fatal("crash never fired; the trial proves nothing")
			}
			s1.Close()
			st.Close()

			// "Reboot": clean store on the same directory, fresh server.
			st2, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			persisted := len(st2.Keys("result|"))
			if persisted >= len(want) {
				t.Fatalf("%d of %d results survived the crash; no tail left to prove resume", persisted, len(want))
			}
			cfg2 := smallConfig()
			cfg2.Experiments.Store = st2
			s2, err := New(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if s2.Resumed() != 1 {
				t.Fatalf("Resumed() = %d, want 1", s2.Resumed())
			}
			got := pollTerminal(t, s2, st1.ID) // original ID survives the reboot
			if got.Status != StatusDone {
				t.Fatalf("resumed campaign %s: %s (%s)", got.ID, got.Status, got.Error)
			}
			stats := s2.Stats()
			if int(stats.StoreHits) != persisted || int(stats.UniqueRuns) != len(want)-persisted {
				t.Errorf("resume ran %d sessions with %d store hits, want tail-only %d/%d",
					stats.UniqueRuns, stats.StoreHits, len(want)-persisted, persisted)
			}
			j2, _ := s2.jobByID(st1.ID)
			if len(j2.results) != len(want) {
				t.Fatalf("resumed campaign has %d results, want %d", len(j2.results), len(want))
			}
			for i, res := range j2.results {
				if !bytes.Equal(normalizeResult(t, res), want[i]) {
					t.Fatalf("result %d differs from the uninterrupted reference", i)
				}
			}
		})
	}
}

// TestDrainLeavesQueuedCampaignsResumable asserts graceful shutdown with a
// journal drains instead of drops: nothing is canceled, unfinished campaigns
// stay queued on disk, and a reboot on the same store finishes them.
func TestDrainLeavesQueuedCampaignsResumable(t *testing.T) {
	if testing.Short() {
		t.Skip("server tests train a predictor")
	}
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.JobWorkers = 1
	cfg.DrainTimeout = time.Millisecond
	cfg.Experiments.Store = st
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		jst, err := s.Submit(Campaign{Apps: []string{"cnn"}, Schedulers: []string{"EBS", "Ondemand", "Interactive"}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, jst.ID)
	}
	s.Close()
	pending := 0
	for _, id := range ids {
		j, _ := s.jobByID(id)
		switch jst := j.snapshot(); jst.Status {
		case StatusDone:
		case StatusQueued:
			pending++
		default:
			t.Errorf("after drain, job %s is %s, want done or queued", id, jst.Status)
		}
	}
	if pending == 0 {
		t.Skip("every campaign finished inside the drain window; nothing to resume")
	}
	st.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cfg2 := smallConfig()
	cfg2.Experiments.Store = st2
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Resumed() != pending {
		t.Fatalf("Resumed() = %d, want %d", s2.Resumed(), pending)
	}
	for _, id := range ids {
		if _, ok := s2.jobByID(id); !ok {
			continue // finished before the drain, journaled terminal, not resumed
		}
		if got := pollTerminal(t, s2, id); got.Status != StatusDone {
			t.Errorf("resumed campaign %s: %s (%s)", id, got.Status, got.Error)
		}
	}
}

// blockingTransport is a remote worker that never answers: every shard
// blocks until the coordinator abandons it. entered is signalled on the
// first dispatch.
type blockingTransport struct {
	once    sync.Once
	entered chan struct{}
}

func (b *blockingTransport) RunShard(ctx context.Context, worker string, req cluster.ShardRequest) (cluster.ShardResponse, error) {
	b.once.Do(func() { close(b.entered) })
	<-ctx.Done()
	return cluster.ShardResponse{}, ctx.Err()
}

// TestDrainCancelsCoordinatorCampaign asserts the drain deadline reaches
// coordinator-mode execution: a campaign stuck on a worker that never
// answers returns to queued when Close passes DrainTimeout, and a reboot on
// the same store resumes it under its original ID with rows byte-identical
// to an uninterrupted run.
func TestDrainCancelsCoordinatorCampaign(t *testing.T) {
	campaign := Campaign{Apps: []string{"cnn"}, Schedulers: []string{"EBS", "Ondemand", "PES"}}
	ref := testServer(t)
	refSt, err := ref.Submit(campaign)
	if err != nil {
		t.Fatal(err)
	}
	if got := pollTerminal(t, ref, refSt.ID); got.Status != StatusDone {
		t.Fatalf("reference campaign %s: %s (%s)", got.ID, got.Status, got.Error)
	}
	refJob, _ := ref.jobByID(refSt.ID)

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := &blockingTransport{entered: make(chan struct{})}
	coord, err := cluster.New(cluster.Config{Workers: []string{"stuck:9001"}, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cfg := smallConfig()
	cfg.Cluster = coord
	cfg.DrainTimeout = 20 * time.Millisecond
	cfg.Experiments.Store = st
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jst, err := s1.Submit(campaign)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tr.entered:
	case <-time.After(time.Minute):
		t.Fatal("the campaign was never dispatched to the worker")
	}
	closed := make(chan struct{})
	go func() { s1.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(time.Minute):
		t.Fatal("Close never returned: the drain deadline did not reach the coordinator")
	}
	j1, _ := s1.jobByID(jst.ID)
	if got := j1.snapshot(); got.Status != StatusQueued {
		t.Fatalf("after the drain deadline the campaign is %s, want queued", got.Status)
	}
	st.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cfg2 := smallConfig()
	cfg2.Experiments.Store = st2
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Resumed() != 1 {
		t.Fatalf("Resumed() = %d, want 1", s2.Resumed())
	}
	if got := pollTerminal(t, s2, jst.ID); got.Status != StatusDone {
		t.Fatalf("resumed campaign %s: %s (%s)", jst.ID, got.Status, got.Error)
	}
	j2, _ := s2.jobByID(jst.ID)
	if len(j2.results) != len(refJob.results) {
		t.Fatalf("resumed campaign has %d results, want %d", len(j2.results), len(refJob.results))
	}
	for i, res := range j2.results {
		if !bytes.Equal(normalizeResult(t, res), normalizeResult(t, refJob.results[i])) {
			t.Fatalf("result %d differs from the uninterrupted run", i)
		}
	}
}

// TestSubmitQueueFull429 asserts admission control: a full queue surfaces as
// ErrQueueFull from Submit and as 429 + Retry-After over HTTP.
func TestSubmitQueueFull429(t *testing.T) {
	shared := testServer(t)
	// No workers: the queue never drains, so fullness is deterministic.
	s := &Server{
		cfg:     Config{QueueDepth: 1, MaxJobs: 16},
		setup:   shared.setup,
		jobs:    make(map[string]*job),
		queue:   make(chan *job, 1),
		figures: memo.New[string, *experiments.Table](),
	}
	if _, err := s.Submit(Campaign{Apps: []string{"cnn"}}); err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	if _, err := s.Submit(Campaign{Apps: []string{"cnn"}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second Submit error = %v, want ErrQueueFull", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(`{"apps":["cnn"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "queue is full") {
		t.Errorf("error body %+v (%v)", e, err)
	}
}
