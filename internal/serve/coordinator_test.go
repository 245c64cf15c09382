package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	wsd "repro"

	"repro/internal/cluster"
	"repro/internal/stream"
)

// coordFixture is a coordinator front end over three in-process single-shard
// workers, all counting triangles with a 600-edge total budget.
type coordFixture struct {
	coord   *Coordinator
	ts      *httptest.Server
	workers []*httptest.Server
}

func newCoordFixture(t *testing.T) *coordFixture {
	t.Helper()
	budgets := []int{200, 200, 200}
	urls := make([]string, len(budgets))
	workers := make([]*httptest.Server, len(budgets))
	for i, m := range budgets {
		srv, err := New(Config{Pattern: wsd.TrianglePattern, M: m, Shards: 1,
			Options: []wsd.Option{wsd.WithSeed(int64(100 + i))}})
		if err != nil {
			t.Fatal(err)
		}
		wts := httptest.NewServer(srv.Handler())
		t.Cleanup(wts.Close)
		t.Cleanup(func() { srv.Close() })
		urls[i] = wts.URL
		workers[i] = wts
	}
	coord, err := NewCoordinator(CoordinatorConfig{Cluster: cluster.Config{Workers: urls}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	return &coordFixture{coord: coord, ts: ts, workers: workers}
}

// TestCoordinatorEndpoints walks the full endpoint set over live workers:
// binary ingest, combined estimate (all patterns and ?pattern=), cluster
// snapshot/restore, and the healthz readiness shape.
func TestCoordinatorEndpoints(t *testing.T) {
	fx := newCoordFixture(t)
	s := testStream(t, 19, 400)
	var body bytes.Buffer
	if err := stream.WriteBinary(&body, s); err != nil {
		t.Fatal(err)
	}

	out := post(t, fx.ts.URL+"/ingest", body.Bytes())
	if int(out["accepted"].(float64)) != len(s) || int(out["applied"].(float64)) != 3 {
		t.Fatalf("ingest reply %v, want accepted=%d applied=3", out, len(s))
	}

	blob := get(t, fx.ts.URL+"/snapshot") // quiesces every worker
	if _, err := cluster.DecodeSnapshot(blob); err != nil {
		t.Fatalf("/snapshot did not return a cluster blob: %v", err)
	}

	var est struct {
		Estimate        float64            `json:"estimate"`
		Estimates       map[string]float64 `json:"estimates"`
		WorkerEstimates []float64          `json:"worker_estimates"`
		Processed       int64              `json:"processed"`
		Workers         int                `json:"workers"`
		Gathered        int                `json:"gathered"`
		Degraded        bool               `json:"degraded"`
	}
	if err := json.Unmarshal(get(t, fx.ts.URL+"/estimate"), &est); err != nil {
		t.Fatal(err)
	}
	if est.Workers != 3 || est.Gathered != 3 || est.Degraded {
		t.Fatalf("estimate metadata %+v", est)
	}
	if est.Processed != int64(len(s)) {
		t.Fatalf("processed %d of %d", est.Processed, len(s))
	}
	if len(est.WorkerEstimates) != 3 {
		t.Fatalf("worker estimates %v", est.WorkerEstimates)
	}
	sum := 0.0
	for _, v := range est.WorkerEstimates {
		sum += v
	}
	if want := sum / 3; est.Estimate != want {
		t.Fatalf("estimate %v, mean of workers %v", est.Estimate, want)
	}

	// ?pattern= goes through the same alias-aware parser as the single-node
	// endpoint; 3clique is an alias of triangle.
	var one struct {
		Pattern  string  `json:"pattern"`
		Estimate float64 `json:"estimate"`
		Quorum   int     `json:"quorum"`
	}
	if err := json.Unmarshal(get(t, fx.ts.URL+"/estimate?pattern=3clique"), &one); err != nil {
		t.Fatal(err)
	}
	if one.Pattern != "triangle" || one.Estimate != est.Estimate || one.Quorum != 2 {
		t.Fatalf("single-pattern read %+v, want triangle/%v/quorum 2", one, est.Estimate)
	}
	if resp, err := http.Get(fx.ts.URL + "/estimate?pattern=wedge"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unserved pattern: %v %v, want 400", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	var h struct {
		Status    string `json:"status"`
		Workers   int    `json:"workers"`
		Serving   int    `json:"serving"`
		HasQuorum bool   `json:"has_quorum"`
		Shards    int    `json:"shards"`
	}
	if err := json.Unmarshal(get(t, fx.ts.URL+"/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Serving != 3 || !h.HasQuorum || h.Shards != 1 {
		t.Fatalf("healthz %+v", h)
	}

	// Restore the snapshot taken above into the same fleet: accepted, and the
	// cluster keeps serving.
	out = post(t, fx.ts.URL+"/restore", blob)
	if out["restored"] != true || int(out["workers"].(float64)) != 3 {
		t.Fatalf("restore reply %v", out)
	}
}

// TestCoordinatorDegradedHTTP: worker death surfaces as degraded-but-serving
// on /estimate and /healthz, and as 503 once quorum is lost.
func TestCoordinatorDegradedHTTP(t *testing.T) {
	fx := newCoordFixture(t)
	s := testStream(t, 23, 300)
	var body bytes.Buffer
	if err := stream.WriteBinary(&body, s); err != nil {
		t.Fatal(err)
	}
	post(t, fx.ts.URL+"/ingest", body.Bytes())
	get(t, fx.ts.URL+"/snapshot")

	fx.workers[0].Close()
	var est struct {
		Gathered int  `json:"gathered"`
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(get(t, fx.ts.URL+"/estimate"), &est); err != nil {
		t.Fatal(err)
	}
	if est.Gathered != 2 || !est.Degraded {
		t.Fatalf("degraded estimate %+v", est)
	}
	var h struct {
		Status  string `json:"status"`
		Serving int    `json:"serving"`
	}
	if err := json.Unmarshal(get(t, fx.ts.URL+"/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.Serving != 2 {
		t.Fatalf("degraded healthz %+v", h)
	}
	// A degraded fleet cannot be checkpointed.
	if resp, err := http.Get(fx.ts.URL + "/snapshot"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded snapshot: %v %v, want 503", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	fx.workers[1].Close()
	for _, path := range []string{"/estimate", "/healthz"} {
		resp, err := http.Get(fx.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s below quorum: status %d, want 503", path, resp.StatusCode)
		}
	}
}

// TestCoordinatorBadRequests: client errors must come back as client errors
// with the cluster untouched.
func TestCoordinatorBadRequests(t *testing.T) {
	fx := newCoordFixture(t)
	checks := map[string]struct {
		path string
		body string
		want int
	}{
		"unparsable ingest":        {"/ingest", "not numbers\n", http.StatusBadRequest},
		"truncated binary ingest":  {"/ingest", "WSDB", http.StatusBadRequest},
		"garbage restore":          {"/restore", "{", http.StatusBadRequest},
		"ensemble blob to cluster": {"/restore", "", http.StatusBadRequest},
	}
	ens, err := wsd.NewShardedCounter(wsd.TrianglePattern, 200, 2, wsd.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	ensBlob, err := ens.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ens.Close()
	for name, c := range checks {
		body := []byte(c.body)
		if name == "ensemble blob to cluster" {
			body = ensBlob
		}
		resp, err := http.Post(fx.ts.URL+c.path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d (%s), want %d", name, resp.StatusCode, raw, c.want)
		}
	}
	// After all the rejections the cluster still serves.
	var h struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(get(t, fx.ts.URL+"/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz after bad requests: %+v", h)
	}
}

// TestCoordinatorConcurrentTraffic exercises the coordinator under the race
// detector: parallel /ingest bodies (serialized by the broadcast lock so
// every worker applies them in one global order), /estimate and /healthz
// reads, and /snapshot (which excludes broadcasts so the blob cannot tear
// across workers mid-ingest).
func TestCoordinatorConcurrentTraffic(t *testing.T) {
	fx := newCoordFixture(t)
	s := testStream(t, 29, 600)

	chunks := make([][]byte, 0, 8)
	per := (len(s) + 7) / 8
	for lo := 0; lo < len(s); lo += per {
		hi := min(lo+per, len(s))
		var buf bytes.Buffer
		if err := stream.WriteBinary(&buf, s[lo:hi]); err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, buf.Bytes())
	}

	do := func(method, url string, body []byte) {
		var resp *http.Response
		var err error
		if method == http.MethodPost {
			resp, err = http.Post(url, "application/octet-stream", bytes.NewReader(body))
		} else {
			resp, err = http.Get(url)
		}
		if err != nil {
			t.Errorf("%s %s: %v", method, url, err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s %s: status %d", method, url, resp.StatusCode)
		}
	}
	var wg sync.WaitGroup
	for _, chunk := range chunks {
		wg.Add(1)
		go func(chunk []byte) {
			defer wg.Done()
			do(http.MethodPost, fx.ts.URL+"/ingest", chunk)
		}(chunk)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				do(http.MethodGet, fx.ts.URL+"/estimate", nil)
				do(http.MethodGet, fx.ts.URL+"/healthz", nil)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			do(http.MethodGet, fx.ts.URL+"/snapshot", nil)
		}
	}()
	wg.Wait()

	get(t, fx.ts.URL+"/snapshot") // quiesce
	var est struct {
		Processed int64 `json:"processed"`
		Gathered  int   `json:"gathered"`
		Degraded  bool  `json:"degraded"`
	}
	if err := json.Unmarshal(get(t, fx.ts.URL+"/estimate"), &est); err != nil {
		t.Fatal(err)
	}
	if est.Processed != int64(len(s)) || est.Gathered != 3 || est.Degraded {
		t.Fatalf("after concurrent traffic: %+v, want processed=%d gathered=3", est, len(s))
	}
}

// TestWorkerRejectsClusterBlob: a cluster snapshot POSTed to a single
// worker's /restore must be refused with a pointer at the coordinator.
func TestWorkerRejectsClusterBlob(t *testing.T) {
	fx := newCoordFixture(t)
	blob := get(t, fx.ts.URL+"/snapshot")

	_, workerTS := testServer(t)
	resp, err := http.Post(workerTS.URL+"/restore", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(raw, []byte("cluster snapshot")) {
		t.Fatalf("worker restore of cluster blob: %d %s, want 400 naming the cluster snapshot", resp.StatusCode, raw)
	}
}

// TestCoordinatorFlushEndpoint drives POST /flush on the coordinator: after
// a binary ingest, the barrier must succeed across the fleet and a
// following /estimate must reflect every accepted event; killing a worker
// must turn the barrier into a 503 (a fleet barrier with a hole is not a
// barrier).
func TestCoordinatorFlushEndpoint(t *testing.T) {
	fx := newCoordFixture(t)
	s := testStream(t, 23, 350)
	var body bytes.Buffer
	if err := stream.WriteBinary(&body, s); err != nil {
		t.Fatal(err)
	}
	post(t, fx.ts.URL+"/ingest", body.Bytes())

	out := post(t, fx.ts.URL+"/flush", nil)
	if out["flushed"] != true {
		t.Fatalf("flush reply = %v", out)
	}
	if got := int(out["workers"].(float64)); got != len(fx.workers) {
		t.Fatalf("flush reported %d workers, want %d", got, len(fx.workers))
	}
	var est map[string]any
	if err := json.Unmarshal(get(t, fx.ts.URL+"/estimate"), &est); err != nil {
		t.Fatal(err)
	}
	if got := int(est["processed"].(float64)); got != len(s) {
		t.Fatalf("processed after flush = %d, want %d", got, len(s))
	}

	fx.workers[1].Close()
	resp, err := http.Post(fx.ts.URL+"/flush", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("flush with a dead worker = %d, want 503", resp.StatusCode)
	}
}
