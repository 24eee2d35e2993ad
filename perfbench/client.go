package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// pollInterval is the pause between status polls of one campaign.
const pollInterval = 500 * time.Microsecond

// campaignClient drives one campaign at a time through the HTTP API: submit,
// poll the status until done, read the results body to the end. One client
// is one closed-loop user; it is not safe for concurrent use.
type campaignClient struct {
	base    string
	hc      *http.Client
	body    bytes.Buffer
	scratch []byte
}

// rowDigests identifies the result of one served row: norm digests it with
// the solver's host-timed wall_ns zeroed, wall holds the wall_ns values.
type rowDigests struct {
	key  sessionKey
	norm digest
	wall string
}

// campaignRun is the client-side record of one campaign.
type campaignRun struct {
	id                    string
	start                 time.Time
	submit, wait, results time.Duration
	total                 time.Duration
	check                 time.Duration // client-side digesting, after total
	polls                 int
	bytes                 int
	rows                  []rowDigests
	err                   error
	serverSpans           []obs.Span // traced runs only
	sessions              int
}

// do runs one campaign to completion.
func (c *campaignClient) do(camp server.Campaign) campaignRun {
	var out campaignRun
	payload, err := json.Marshal(camp)
	if err != nil {
		out.err = err
		return out
	}
	out.start = time.Now()
	resp, err := c.hc.Post(c.base+"/v1/campaigns", "application/json", bytes.NewReader(payload))
	if err != nil {
		out.err = err
		return out
	}
	var st server.JobStatus
	err = decodeBody(resp, http.StatusAccepted, &st)
	submitted := time.Now()
	out.submit = submitted.Sub(out.start)
	if err != nil {
		out.err = fmt.Errorf("submit: %w", err)
		return out
	}
	out.id, out.sessions = st.ID, st.Sessions
	for st.Status != server.StatusDone {
		if st.Status == server.StatusFailed || st.Status == server.StatusCanceled {
			out.err = fmt.Errorf("campaign %s ended %s: %s", st.ID, st.Status, st.Error)
			return out
		}
		if out.polls > 0 {
			time.Sleep(pollInterval)
		}
		out.polls++
		resp, err := c.hc.Get(c.base + "/v1/campaigns/" + out.id)
		if err != nil {
			out.err = err
			return out
		}
		if err := decodeBody(resp, http.StatusOK, &st); err != nil {
			out.err = fmt.Errorf("status: %w", err)
			return out
		}
	}
	done := time.Now()
	out.wait = done.Sub(submitted)
	resp, err = c.hc.Get(c.base + "/v1/campaigns/" + out.id + "/results")
	if err != nil {
		out.err = err
		return out
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	out.results = end.Sub(done)
	out.total = end.Sub(out.start)
	out.bytes = c.body.Len()
	if err != nil || resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("results: status %d, %v", resp.StatusCode, err)
		return out
	}
	out.err = c.digestRows(&out)
	out.check = time.Since(end)
	return out
}

// digestRows digests every row of the results body.
func (c *campaignClient) digestRows(out *campaignRun) error {
	rows, buf, err := scanRows(c.body.Bytes(), c.scratch)
	c.scratch = buf
	if err != nil {
		return err
	}
	if len(rows) != out.sessions {
		return fmt.Errorf("campaign %s returned %d rows for %d sessions", out.id, len(rows), out.sessions)
	}
	out.rows = rows
	return nil
}

// fetchSpans reads the campaign's server-side span timeline.
func (c *campaignClient) fetchSpans(out *campaignRun) error {
	resp, err := c.hc.Get(c.base + "/v1/campaigns/" + out.id + "/trace")
	if err != nil {
		return err
	}
	var tr server.TraceResponse
	if err := decodeBody(resp, http.StatusOK, &tr); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	out.serverSpans = tr.Spans
	return nil
}

// decodeBody decodes a JSON response with the wanted status and closes it.
func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("status %d, want %d", resp.StatusCode, want)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// newHTTPClient returns a keep-alive client sized for the closed loop.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * workers()}}
}

// campaignLog collects the outcome of every campaign of a phase and keeps
// the digest of every session seen, failing any session whose result
// changes between campaigns.
type campaignLog struct {
	mu   sync.Mutex
	runs []campaignRun
	norm map[sessionKey]digest
	wall map[sessionKey]string
}

func newCampaignLog() *campaignLog {
	return &campaignLog{norm: map[sessionKey]digest{}, wall: map[sessionKey]string{}}
}

// add records a campaign and cross-checks its rows against earlier ones.
func (l *campaignLog) add(r *run, cr campaignRun) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.attempted++
	if cr.err != nil {
		r.fail("%v", cr.err)
	}
	for _, row := range cr.rows {
		if d, ok := l.norm[row.key]; ok && d != row.norm {
			r.fail("session %s changed between campaigns", row.key)
		}
		l.norm[row.key] = row.norm
		l.wall[row.key] = row.wall
	}
	cr.rows = nil // digests are kept per session; drop the per-campaign copy
	l.runs = append(l.runs, cr)
}

// closedLoop runs workers() clients, each submitting the next campaign
// index as soon as its previous campaign completes, until the deadline
// passes (campaigns in flight then complete) or limit campaigns have
// started (limit < 0 means no limit).
func closedLoop(base string, deadline time.Time, limit int, fn func(c *campaignClient, i int)) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &campaignClient{base: base, hc: hc}
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if limit >= 0 && i >= limit {
					return
				}
				fn(c, i)
			}
		}()
	}
	wg.Wait()
}
