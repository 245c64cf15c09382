package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	wsd "repro"

	"repro/internal/cluster"
)

// TestCoordinatorAndWorkerBodyCaps: every route that takes a body, in both
// modes, refuses an over-cap body with 413 before anything moves — the
// accepted position and the active policy read the same afterwards.
func TestCoordinatorAndWorkerBodyCaps(t *testing.T) {
	const limit = 512
	srv, err := New(Config{Pattern: wsd.TrianglePattern, M: 200, Shards: 1,
		MaxBodyBytes: limit, Options: []wsd.Option{wsd.WithSeed(3)}})
	if err != nil {
		t.Fatal(err)
	}
	worker := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { worker.Close(); srv.Close() })

	fx := newCoordFixture(t)
	urls := make([]string, len(fx.workers))
	for i, w := range fx.workers {
		urls[i] = w.URL
	}
	coord, err := NewCoordinator(CoordinatorConfig{Cluster: cluster.Config{Workers: urls}, MaxBodyBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	capped := httptest.NewServer(coord.Handler())
	t.Cleanup(capped.Close)

	// Move both deployments off position zero first, with bodies under the
	// cap, so an over-cap body that leaked a prefix would show.
	small := binaryBody(t, testStream(t, 5, 40)[:20])
	if len(small) > limit {
		t.Fatalf("under-cap body is %d bytes", len(small))
	}
	post(t, worker.URL+"/ingest", small)
	post(t, capped.URL+"/ingest", small)

	// state reads what an over-cap body must not move: the healthz position
	// and policy, and for the coordinator each worker's position.
	state := func(base string, workers []string) string {
		var h struct {
			Status   string `json:"status"`
			Position int64  `json:"position"`
			Policy   string `json:"policy"`
		}
		if err := json.Unmarshal(get(t, base+"/healthz"), &h); err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("%+v", h)
		for _, w := range workers {
			if err := json.Unmarshal(get(t, w+"/healthz"), &h); err != nil {
				t.Fatal(err)
			}
			out += fmt.Sprintf(" %+v", h)
		}
		return out
	}
	artifact, _ := testArtifact(t, wsd.TrianglePattern, 0.05)
	over := append(bytes.Repeat([]byte("1 2\n"), limit/4), artifact...)

	for _, mode := range []struct {
		name    string
		base    string
		workers []string
		routes  []string
	}{
		{"worker", worker.URL, nil, []string{"POST /ingest", "POST /restore", "PUT /policy", "POST /policy/shadow"}},
		{"coordinator", capped.URL, urls, []string{"POST /ingest", "POST /restore", "PUT /policy"}},
	} {
		before := state(mode.base, mode.workers)
		for _, rt := range mode.routes {
			method, path, _ := bytes.Cut([]byte(rt), []byte(" "))
			req, err := http.NewRequest(string(method), mode.base+string(path), bytes.NewReader(over))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("%s %s with a %d-byte body: %d (%s), want 413", mode.name, rt, len(over), resp.StatusCode, raw)
			}
		}
		if after := state(mode.base, mode.workers); after != before {
			t.Errorf("%s: over-cap bodies moved state:\nbefore %s\nafter  %s", mode.name, before, after)
		}
	}
	if code, body := getStatus(t, worker.URL+"/policy/shadow"); code != http.StatusNotFound {
		t.Errorf("over-cap POST /policy/shadow attached a shadow: %d %s", code, body)
	}
}

// TestCoordinatorPolicyRejectedEverywhereIs400: an artifact every worker
// rejects whole (a wedge policy on a triangle fleet) is the client's error —
// 400, as for a malformed one — and the fleet keeps serving its heuristic.
func TestCoordinatorPolicyRejectedEverywhereIs400(t *testing.T) {
	fx := newCoordFixture(t)
	raw, _ := testArtifact(t, wsd.WedgePattern, 0)
	if code, body := doPut(t, fx.ts.URL+"/policy", raw); code != http.StatusBadRequest {
		t.Fatalf("wedge artifact on a triangle fleet: %d %s, want 400", code, body)
	}
	var h struct {
		Status string `json:"status"`
		Policy string `json:"policy"`
	}
	if err := json.Unmarshal(get(t, fx.ts.URL+"/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Policy != "heuristic" {
		t.Fatalf("rejected swap moved the fleet: %+v", h)
	}
}
