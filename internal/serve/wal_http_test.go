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

// walCoordinator starts len(budgets) workers and a logged coordinator over
// them: one broadcast log, or — partitioned — one log per partition, each
// worker serving its fleet slot. It returns the coordinator URL, the worker
// URLs and the logs in slot order.
func walCoordinator(t *testing.T, budgets []int, partitioned bool) (string, []string, []*wal.Log) {
	t.Helper()
	urls := make([]string, len(budgets))
	for i, m := range budgets {
		cfg := Config{Pattern: wsd.TrianglePattern, M: m, Shards: 1,
			Options: []wsd.Option{wsd.WithSeed(int64(300 + i))}}
		if partitioned {
			cfg.PartitionIndex, cfg.PartitionCount = i, len(budgets)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wts := httptest.NewServer(srv.Handler())
		t.Cleanup(wts.Close)
		t.Cleanup(func() { srv.Close() })
		urls[i] = wts.URL
	}
	slots := 1
	if partitioned {
		slots = len(budgets)
	}
	logs := make([]*wal.Log, slots)
	for i := range logs {
		lg, err := wal.Open(t.TempDir(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lg.Close() })
		logs[i] = lg
	}
	ccfg := cluster.Config{Workers: urls, Partitioned: partitioned}
	if partitioned {
		ccfg.Logs = logs
	} else {
		ccfg.Log = logs[0]
	}
	coord, err := NewCoordinator(CoordinatorConfig{Cluster: ccfg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	return ts.URL, urls, logs
}

// checkWALLists asserts the coordinator's two log reports — /healthz and
// /catchup — each carry one wals entry per log, in slot order, at the log's
// current range.
func checkWALLists(t *testing.T, url string, logs []*wal.Log) {
	t.Helper()
	var h struct {
		Status string `json:"status"`
		WALs   []struct {
			Dir      string `json:"dir"`
			Base     uint64 `json:"base"`
			End      uint64 `json:"end"`
			Events   int64  `json:"events"`
			Segments int    `json:"segments"`
		} `json:"wals"`
	}
	if err := json.Unmarshal(get(t, url+"/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.WALs) != len(logs) {
		t.Fatalf("coordinator healthz %+v, want ok with %d wals entries", h, len(logs))
	}
	for i, lg := range logs {
		if w := h.WALs[i]; w.Dir != lg.Dir() || w.Base != lg.Base() || w.End != lg.End() || w.Events != lg.Events() || w.Segments != lg.Segments() {
			t.Fatalf("healthz wals[%d] = %+v, log %s at %d/%d", i, w, lg.Dir(), lg.End(), lg.Events())
		}
	}

	// /catchup on a caught-up fleet is a cheap no-op that reports each
	// log's end.
	var c struct {
		CaughtUp bool              `json:"caught_up"`
		WALs     []cluster.WALMark `json:"wals"`
	}
	resp, err := http.Post(url+"/catchup", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("catchup: %d, %v", resp.StatusCode, err)
	}
	if !c.CaughtUp || len(c.WALs) != len(logs) {
		t.Fatalf("catchup reply %+v, want caught_up with %d wals entries", c, len(logs))
	}
	for i, lg := range logs {
		if want := (cluster.WALMark{Position: lg.End(), Events: lg.Events()}); c.WALs[i] != want {
			t.Fatalf("catchup wals[%d] = %+v, want %+v", i, c.WALs[i], want)
		}
	}
}

// TestCatchUpEndpointAndWALHealth drives the durability surface over HTTP:
// /catchup triggers a fleet realignment against the write-ahead log, worker
// /healthz reports the absolute stream position the coordinator aligns on,
// and coordinator /healthz and /catchup carry the broadcast log as a
// one-entry wals list.
func TestCatchUpEndpointAndWALHealth(t *testing.T) {
	url, urls, logs := walCoordinator(t, []int{200, 200, 200}, false)
	log := logs[0]

	s := testStream(t, 23, 300)
	var body bytes.Buffer
	if err := stream.WriteBinary(&body, s); err != nil {
		t.Fatal(err)
	}
	post(t, url+"/ingest", body.Bytes())

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

	// Coordinator /healthz carries per-worker ack state beside the log list.
	var h struct {
		WorkersDetail []struct {
			Lagging  bool   `json:"lagging"`
			Position int64  `json:"position"`
			Acked    uint64 `json:"acked"`
		} `json:"workers_detail"`
	}
	if err := json.Unmarshal(get(t, url+"/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	for i, wd := range h.WorkersDetail {
		if wd.Lagging || wd.Acked != log.End() || wd.Position != int64(len(s)) {
			t.Fatalf("worker %d detail %+v, want acked=%d position=%d", i, wd, log.End(), len(s))
		}
	}
	if log.Events() != int64(len(s)) {
		t.Fatalf("log holds %d events, want %d", log.Events(), len(s))
	}
	checkWALLists(t, url, logs)
}

// TestPartitionedCatchUpEndpointAndWALHealth is the partitioned twin: the
// same two reports carry one wals entry per partition log, in slot order.
func TestPartitionedCatchUpEndpointAndWALHealth(t *testing.T) {
	url, _, logs := walCoordinator(t, []int{300, 300}, true)
	s := testStream(t, 29, 300)
	var body bytes.Buffer
	if err := stream.WriteBinary(&body, s); err != nil {
		t.Fatal(err)
	}
	post(t, url+"/ingest", body.Bytes())
	for i, lg := range logs {
		if lg.End() == 0 {
			t.Fatalf("partition log %d holds no frames after ingest", i)
		}
	}
	if logs[0].Events() == logs[1].Events() {
		t.Fatalf("both partition logs hold %d events; the test cannot tell slot order", logs[0].Events())
	}
	checkWALLists(t, url, logs)
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
