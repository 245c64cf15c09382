package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	wsd "repro"

	"repro/internal/graph"
	"repro/internal/stream"
)

// TestChurnFeasible pins the property the synthetic stream guarantees to the
// server: every delete removes an edge that is currently present, no inserts
// duplicate a present edge, and no loops appear — an infeasible event would
// be rejected by the worker and count as a harness bug, not server load.
func TestChurnFeasible(t *testing.T) {
	src := newChurn(11, 500, 0.3)
	present := make(map[graph.Edge]bool)
	deletes := 0
	const batches, k = 200, 64
	for b := 0; b < batches; b++ {
		for _, ev := range src.batch(k) {
			if ev.Edge.IsLoop() {
				t.Fatalf("batch %d: loop edge %v", b, ev.Edge)
			}
			switch ev.Op {
			case stream.Insert:
				if present[ev.Edge] {
					t.Fatalf("batch %d: insert of present edge %v", b, ev.Edge)
				}
				present[ev.Edge] = true
			case stream.Delete:
				if !present[ev.Edge] {
					t.Fatalf("batch %d: delete of absent edge %v", b, ev.Edge)
				}
				delete(present, ev.Edge)
				deletes++
			default:
				t.Fatalf("batch %d: unknown op %v", b, ev.Op)
			}
		}
	}
	// The delete fraction is a target, not a quota, but over 12800 events it
	// should land near 0.3 — a collapsed mix means the churn state broke.
	frac := float64(deletes) / float64(batches*k)
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("delete fraction %.3f, want near 0.3", frac)
	}
}

// TestChurnEncodeRoundTrips checks that the reused encode buffer produces a
// valid binary wire body for every batch: the decoded events must equal the
// generated ones even though both slices are recycled between calls.
func TestChurnEncodeRoundTrips(t *testing.T) {
	src := newChurn(5, 40, 0.25)
	for b := 0; b < 20; b++ {
		evs := src.batch(32)
		want := append([]stream.Event(nil), evs...)
		got, err := stream.ReadBinary(bytes.NewReader(src.encode(evs)))
		if err != nil {
			t.Fatalf("batch %d: decode: %v", b, err)
		}
		if len(got) != len(want) {
			t.Fatalf("batch %d: decoded %d events, sent %d", b, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("batch %d event %d: decoded %+v, sent %+v", b, i, got[i], want[i])
			}
		}
	}
}

// TestFleetSplitsWholeBudget: the -fleet workers' budgets split -m like a
// sharded ensemble, remainder included, so the fleet holds exactly m edges.
func TestFleetSplitsWholeBudget(t *testing.T) {
	target, stop, err := startFleet(3, wsd.TrianglePattern, 10, 1, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	getJSON := func(url string, into any) {
		t.Helper()
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	var fleet struct {
		Workers []struct {
			URL string `json:"url"`
		} `json:"workers_detail"`
	}
	getJSON(target, &fleet)
	if len(fleet.Workers) != 3 {
		t.Fatalf("coordinator reports %d workers, want 3", len(fleet.Workers))
	}
	total := 0
	for _, w := range fleet.Workers {
		var worker struct {
			M int `json:"m"`
		}
		getJSON(w.URL, &worker)
		total += worker.M
	}
	if total != 10 {
		t.Fatalf("workers hold %d edges of budget in total, want m=10", total)
	}
}
