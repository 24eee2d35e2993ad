package server

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// The campaign journal makes campaign *lifecycle* durable the same way PR 8
// made results durable: by writing records through the persistent store's
// append-only log (same framing, CRC, torn-tail recovery — no second file
// format). Three record kinds per campaign, keyed under the reserved
// "campaign|" prefix (disjoint from "result|", "trace|", "learner|"):
//
//	campaign|<id>|spec   the submitted Campaign + its expanded session count,
//	                     written at submit. Its presence means the campaign
//	                     must reach a terminal state.
//	campaign|<id>|mark   advisory completion watermark, re-Put every few
//	                     sessions (replay keeps the last). Progress
//	                     observability across restarts; correctness never
//	                     depends on it — resume re-runs the whole plan and
//	                     lets completed sessions come back as store hits.
//	campaign|<id>|state  the terminal state (done/failed), written exactly
//	                     once through PutDurable so on a syncing store
//	                     "campaign done" can never outlive the results it
//	                     stands for.
//
// On startup a server backed by the same store replays the journal: every
// spec without a terminal state is re-expanded (expansion is deterministic)
// and re-enqueued under its original ID. Sessions that persisted before the
// crash are store hits, so a resumed campaign re-simulates only the missing
// tail and serves results byte-identical to an uninterrupted run.

// markEvery is the watermark cadence: one mark record per this many
// completed sessions (plus one at campaign end). Coarse on purpose — the
// mark is advisory, and one tiny record per session would double the log's
// record count for no recovery benefit.
const markEvery = 8

func specKey(id string) string  { return "campaign|" + id + "|spec" }
func markKey(id string) string  { return "campaign|" + id + "|mark" }
func stateKey(id string) string { return "campaign|" + id + "|state" }

// journalSpec is the value of a spec record: everything needed to re-expand
// and re-enqueue the campaign after a restart.
type journalSpec struct {
	Campaign Campaign `json:"campaign"`
	// Sessions is the expanded session count at submit time, kept as a
	// cross-check: a resumed expansion of a different size means the server
	// binary changed under the journal, and the campaign fails cleanly
	// instead of serving a silently different sweep.
	Sessions int `json:"sessions"`
}

// journalState is the value of a terminal-state record.
type journalState struct {
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// journalMark is the value of a watermark record.
type journalMark struct {
	Completed int `json:"completed"`
}

// journal writes campaign lifecycle records through the persistent store.
// Nil-safe: a nil journal (no -store) makes every method a no-op, so call
// sites read unconditionally.
type journal struct {
	st  *store.Store
	log *slog.Logger

	mu    sync.Mutex
	marks map[string]int // last persisted watermark per campaign
}

func newJournal(st *store.Store, logger *slog.Logger) *journal {
	if logger == nil {
		logger = slog.Default()
	}
	return &journal{st: st, log: logger, marks: make(map[string]int)}
}

// spec records a submitted campaign. Failure to journal is logged, not
// fatal: the campaign still runs, it just will not survive a restart.
func (jl *journal) spec(id string, c Campaign, sessions int) {
	if jl == nil {
		return
	}
	val, err := json.Marshal(journalSpec{Campaign: c, Sessions: sessions})
	if err == nil {
		err = jl.st.Put(specKey(id), val)
	}
	if err != nil {
		jl.log.Warn("journaling campaign spec failed", "campaign", id, "error", err)
	}
}

// mark advances a campaign's completion watermark, writing every markEvery
// sessions and at the end. Monotonic: stale (out-of-order) completions
// never move the watermark backwards.
func (jl *journal) mark(id string, completed, total int) {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	last := jl.marks[id]
	if completed <= last || (completed-last < markEvery && completed != total) {
		jl.mu.Unlock()
		return
	}
	jl.marks[id] = completed
	jl.mu.Unlock()
	val, _ := json.Marshal(journalMark{Completed: completed})
	if err := jl.st.Put(markKey(id), val); err != nil {
		jl.log.Warn("journaling campaign watermark failed", "campaign", id, "completed", completed, "error", err)
	}
}

// state records a campaign's terminal state, durably on a syncing store.
func (jl *journal) state(id, status, errMsg string) {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	delete(jl.marks, id)
	jl.mu.Unlock()
	val, err := json.Marshal(journalState{Status: status, Error: errMsg})
	if err == nil {
		err = jl.st.PutDurable(stateKey(id), val)
	}
	if err != nil {
		jl.log.Warn("journaling campaign terminal state failed", "campaign", id, "status", status, "error", err)
	}
}

// journalEntry is one non-terminal campaign found at startup.
type journalEntry struct {
	id   string
	spec journalSpec
}

// parseJobID extracts the numeric part of a "c%04d" job ID; ok is false for
// foreign keys (nothing else writes the campaign| prefix, but a corrupt or
// hand-edited log must not panic the boot).
func parseJobID(id string) (int, bool) {
	if len(id) < 2 || id[0] != 'c' {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// scan replays the journal: it returns every campaign with a spec record
// but no terminal state (sorted by ID, i.e. submission order) and the
// highest job ID ever journaled, so resumed and fresh submissions never
// collide.
func (jl *journal) scan() (resume []journalEntry, maxID int) {
	if jl == nil {
		return nil, 0
	}
	terminal := make(map[string]bool)
	var specIDs []string
	for _, key := range jl.st.Keys("campaign|") {
		parts := strings.Split(key, "|")
		if len(parts) != 3 {
			continue
		}
		id, kind := parts[1], parts[2]
		n, ok := parseJobID(id)
		if !ok {
			jl.log.Warn("skipping malformed journal key", "key", key)
			continue
		}
		if n > maxID {
			maxID = n
		}
		switch kind {
		case "state":
			terminal[id] = true
		case "spec":
			specIDs = append(specIDs, id)
		}
	}
	sort.Slice(specIDs, func(i, j int) bool {
		a, _ := parseJobID(specIDs[i])
		b, _ := parseJobID(specIDs[j])
		return a < b
	})
	for _, id := range specIDs {
		if terminal[id] {
			continue
		}
		val, ok := jl.st.Get(specKey(id))
		if !ok {
			// The spec record rotted after replay; nothing to resume from.
			jl.log.Warn("campaign spec record unreadable, not resuming", "campaign", id)
			continue
		}
		var spec journalSpec
		if err := json.Unmarshal(val, &spec); err != nil {
			jl.log.Warn("campaign spec record undecodable, not resuming", "campaign", id, "error", err)
			continue
		}
		resume = append(resume, journalEntry{id: id, spec: spec})
	}
	return resume, maxID
}

// RecoverySummary is the outcome of one journal recovery pass: how many
// non-terminal campaigns were re-enqueued, how many failed to re-expand
// (terminated in the journal, queryable as failed jobs), and how many
// stayed journaled because the queue was full. The same counts back the
// pes_campaigns_{resumed,recovery_failed,stayed_journaled} gauges.
type RecoverySummary struct {
	Resumed         int
	Failed          int
	StayedJournaled int
}

// recoverJournal re-enqueues every non-terminal journaled campaign under
// its original ID. Called from New before the workers start, with the
// server not yet shared, so no locking is needed.
func (s *Server) recoverJournal() RecoverySummary {
	entries, maxID := s.journal.scan()
	if maxID > s.nextID {
		s.nextID = maxID
	}
	var sum RecoverySummary
	for _, e := range entries {
		plan, err := e.spec.Campaign.expand(s.setup)
		if err == nil && len(plan.Meta) != e.spec.Sessions {
			err = fmt.Errorf("journaled campaign expanded to %d sessions, was submitted with %d (server configuration changed under the journal)",
				len(plan.Meta), e.spec.Sessions)
		}
		if err != nil {
			// The spec was valid at submit; failing to re-expand means the
			// world changed. Terminate it in the journal so it is not
			// retried forever, and surface the failure as a queryable job
			// (with an empty plan: it reports zero sessions).
			s.log.Warn("resuming campaign failed", "campaign", e.id, "error", err)
			s.journal.state(e.id, StatusFailed, err.Error())
			j := &job{id: e.id, campaign: e.spec.Campaign, plan: &Plan{}, status: StatusFailed, errMsg: err.Error()}
			s.jobs[e.id] = j
			s.order = append(s.order, e.id)
			sum.Failed++
			continue
		}
		j := &job{
			id:       e.id,
			campaign: e.spec.Campaign,
			plan:     plan,
			status:   StatusQueued,
			trace:    obs.NewRecorder(obs.MintTraceID(e.id)),
			enqueued: time.Now(),
		}
		select {
		case s.queue <- j:
		default:
			// Queue full mid-recovery: the campaign stays journaled as
			// non-terminal and a later restart (or a larger QueueDepth)
			// picks it up.
			s.log.Warn("campaign queue full during recovery, campaign stays journaled", "campaign", e.id)
			sum.StayedJournaled++
			continue
		}
		s.jobs[e.id] = j
		s.order = append(s.order, e.id)
		sum.Resumed++
		s.log.Info("resuming campaign from the journal",
			"campaign", e.id, "trace", j.trace.TraceID(), "sessions", len(plan.Meta))
	}
	if s.journal != nil {
		s.log.Info("journal recovery complete",
			"resumed", sum.Resumed, "failed", sum.Failed, "stayed_journaled", sum.StayedJournaled)
	}
	return sum
}
