package main

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/optimizer"
)

// TestScanRowsMatchesEncodingJSON checks the single-pass row scanner
// against encoding/json on indented and compact documents.
func TestScanRowsMatchesEncodingJSON(t *testing.T) {
	type row struct {
		Platform  string         `json:"platform"`
		App       string         `json:"app"`
		TraceSeed int64          `json:"trace_seed"`
		Scheduler string         `json:"scheduler"`
		Label     string         `json:"label"`
		Result    *engine.Result `json:"result"`
	}
	results := []*engine.Result{
		{Scheduler: "PES", App: "cnn", TotalEnergyMJ: 12.5, Violations: 3,
			Solver: optimizer.SolverStats{Solves: 4, Nodes: 99, WallNS: 123456}},
		{Scheduler: "EBS \"quoted\" <&>", App: "ebay", IdleEnergyMJ: -1e-9},
	}
	doc := struct {
		ID     string                `json:"id"`
		Rows   []row                 `json:"rows"`
		Solver optimizer.SolverStats `json:"solver"`
	}{ID: "c0001", Solver: optimizer.SolverStats{WallNS: 7}}
	for i, res := range results {
		doc.Rows = append(doc.Rows, row{Platform: "Exynos5410", App: res.App, TraceSeed: int64(40 + i), Scheduler: res.Scheduler, Result: res})
	}
	indented, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{indented, compact} {
		rows, _, err := scanRows(body, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(results) {
			t.Fatalf("scanned %d rows, want %d", len(rows), len(results))
		}
		for i, res := range results {
			norm, err := resultDigest(res)
			if err != nil {
				t.Fatal(err)
			}
			got := rows[i]
			if got.key != (sessionKey{res.App, int64(40 + i), res.Scheduler}) {
				t.Errorf("row %d key %v", i, got.key)
			}
			if wall := fmt.Sprintf("%d,", res.Solver.WallNS); got.wall != wall {
				t.Errorf("row %d wall %q, want %q", i, got.wall, wall)
			}
			if got.norm != norm {
				t.Errorf("row %d normalized digest differs from resultDigest", i)
			}
		}
	}
	if _, _, err := scanRows(indented[:len(indented)-3], nil); err == nil {
		t.Error("truncated document scanned without error")
	}
}
