package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	wsd "repro"

	"repro/internal/cluster"
	"repro/internal/stream"
	"repro/internal/wal"
)

// TestCatchUpEndpointAndWALHealth drives the durability surface over HTTP:
// /catchup triggers a fleet realignment against the write-ahead log, worker
// /healthz reports the absolute stream position the coordinator aligns on,
// and coordinator /healthz carries the log's retained range.
func TestCatchUpEndpointAndWALHealth(t *testing.T) {
	budgets := []int{200, 200, 200}
	urls := make([]string, len(budgets))
	for i, m := range budgets {
		srv, err := New(Config{Pattern: wsd.TrianglePattern, M: m, Shards: 1,
			Options: []wsd.Option{wsd.WithSeed(int64(300 + i))}})
		if err != nil {
			t.Fatal(err)
		}
		wts := httptest.NewServer(srv.Handler())
		t.Cleanup(wts.Close)
		t.Cleanup(func() { srv.Close() })
		urls[i] = wts.URL
	}
	log, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	coord, err := NewCoordinator(CoordinatorConfig{Cluster: cluster.Config{Workers: urls, Log: log}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)

	s := testStream(t, 23, 300)
	var body bytes.Buffer
	if err := stream.WriteBinary(&body, s); err != nil {
		t.Fatal(err)
	}
	post(t, ts.URL+"/ingest", body.Bytes())

	// Worker /healthz reports its accepted stream position — the value the
	// coordinator's catch-up probe aligns against the log — as soon as the
	// ingest is acknowledged; the applied count catches up to it once the
	// worker's queues drain.
	var wh struct {
		Position  int64 `json:"position"`
		Processed int64 `json:"processed"`
	}
	if err := json.Unmarshal(get(t, urls[0]+"/healthz"), &wh); err != nil {
		t.Fatal(err)
	}
	if wh.Position != int64(len(s)) || wh.Processed > wh.Position {
		t.Fatalf("worker healthz position %d processed %d, want position %d and processed <= position", wh.Position, wh.Processed, len(s))
	}
	post(t, urls[0]+"/flush", nil)
	if err := json.Unmarshal(get(t, urls[0]+"/healthz"), &wh); err != nil {
		t.Fatal(err)
	}
	if wh.Position != int64(len(s)) || wh.Processed != wh.Position {
		t.Fatalf("worker healthz after flush: position %d processed %d, want both %d", wh.Position, wh.Processed, len(s))
	}

	// Coordinator /healthz carries the log's retained range and per-worker
	// ack state.
	var h struct {
		Status string `json:"status"`
		WAL    *struct {
			Dir      string `json:"dir"`
			Base     uint64 `json:"base"`
			End      uint64 `json:"end"`
			Events   int64  `json:"events"`
			Segments int    `json:"segments"`
		} `json:"wal"`
		WorkersDetail []struct {
			Lagging  bool   `json:"lagging"`
			Position int64  `json:"position"`
			Acked    uint64 `json:"acked"`
		} `json:"workers_detail"`
	}
	if err := json.Unmarshal(get(t, ts.URL+"/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.WAL == nil {
		t.Fatalf("coordinator healthz %+v, want ok with a wal block", h)
	}
	if h.WAL.Dir != log.Dir() || h.WAL.End != log.End() || h.WAL.Events != int64(len(s)) {
		t.Fatalf("wal health %+v, log at %d/%d", h.WAL, log.End(), log.Events())
	}
	for i, wd := range h.WorkersDetail {
		if wd.Lagging || wd.Acked != log.End() || wd.Position != int64(len(s)) {
			t.Fatalf("worker %d detail %+v, want acked=%d position=%d", i, wd, log.End(), len(s))
		}
	}

	// /catchup on a caught-up fleet is a cheap no-op that reports the log end.
	out := post(t, ts.URL+"/catchup", nil)
	if out["caught_up"] != true || uint64(out["position"].(float64)) != log.End() {
		t.Fatalf("catchup reply %v, want caught_up=true position=%d", out, log.End())
	}
}

// TestCatchUpWithoutLogIs400: a coordinator running without -wal-dir has no
// log to replay from; /catchup must say so as a client error.
func TestCatchUpWithoutLogIs400(t *testing.T) {
	fx := newCoordFixture(t)
	resp, err := http.Post(fx.ts.URL+"/catchup", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("catchup without a log: %d, want 400", resp.StatusCode)
	}
}
