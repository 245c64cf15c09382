package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	wsd "repro"

	"repro/internal/cluster"
	"repro/internal/exact"
	"repro/internal/stream"
)

// temporalServer starts a triangle server with the given temporal mode (zero
// values for whole-stream), seeded like testServer so whole-stream fixtures
// are bit-comparable across modes.
func temporalServer(t *testing.T, win int64, halflife float64) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{Pattern: wsd.TrianglePattern, M: 600, Shards: 3,
		Options: []wsd.Option{wsd.WithSeed(9)}, Window: win, Halflife: halflife})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// getStatus fetches url and returns the status code and body without failing
// on non-200s (the 400 paths are the point of these tests).
func getStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// TestEstimateUnknownParamRejected pins the /estimate parameter contract: an
// unrecognized query parameter is a 400 naming the offender, never silently
// ignored — a typo like ?windw=500 must not masquerade as a whole-stream
// read. Recognized parameters (and assertions matching the serving mode)
// keep passing.
func TestEstimateUnknownParamRejected(t *testing.T) {
	_, whole := temporalServer(t, 0, 0)
	_, windowed := temporalServer(t, 80, 0)
	_, decayed := temporalServer(t, 0, 40)
	cases := []struct {
		name    string
		ts      *httptest.Server
		query   string
		wantErr string // substring of a 400 body; empty = must be 200
	}{
		{name: "no-params", ts: whole, query: ""},
		{name: "pattern-ok", ts: whole, query: "?pattern=triangle"},
		{name: "typo-windw", ts: whole, query: "?windw=500", wantErr: `unknown query parameter "windw"`},
		{name: "unknown-extra", ts: whole, query: "?pattern=triangle&bogus=1", wantErr: `unknown query parameter "bogus"`},
		{name: "unknown-on-windowed", ts: windowed, query: "?foo=bar", wantErr: `unknown query parameter "foo"`},
		{name: "assert-whole-on-whole", ts: whole, query: "?window=inf"},
		{name: "assert-window-on-whole", ts: whole, query: "?window=80", wantErr: "serves whole-stream estimates"},
		{name: "assert-window-match", ts: windowed, query: "?window=80"},
		{name: "assert-window-wrong-width", ts: windowed, query: "?window=81", wantErr: "serves window=80 estimates"},
		{name: "assert-whole-on-windowed", ts: windowed, query: "?window=inf", wantErr: "serves window=80 estimates"},
		{name: "assert-decay-on-windowed", ts: windowed, query: "?halflife=40", wantErr: "serves window=80 estimates"},
		{name: "assert-decay-match", ts: decayed, query: "?halflife=40"},
		{name: "assert-window-on-decayed", ts: decayed, query: "?window=80", wantErr: "serves halflife=40 estimates"},
		{name: "both-asserted", ts: whole, query: "?window=80&halflife=40", wantErr: "mutually exclusive"},
		{name: "malformed-window", ts: windowed, query: "?window=soon", wantErr: "window"},
		{name: "malformed-halflife", ts: decayed, query: "?halflife=fast", wantErr: "halflife"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := getStatus(t, tc.ts.URL+"/estimate"+tc.query)
			if tc.wantErr == "" {
				if code != http.StatusOK {
					t.Fatalf("GET /estimate%s = %d: %s", tc.query, code, body)
				}
				return
			}
			if code != http.StatusBadRequest {
				t.Fatalf("GET /estimate%s = %d (want 400): %s", tc.query, code, body)
			}
			if !strings.Contains(body, tc.wantErr) {
				t.Fatalf("GET /estimate%s body %q, want substring %q", tc.query, body, tc.wantErr)
			}
		})
	}
}

// TestServedWindowedEstimateMatchesDirectRun: a windowed server's /estimate
// must equal a directly driven sharded counter with the same configuration
// and window — the HTTP layer adds transport, not semantics — and /healthz
// and /estimate must both report the mode.
func TestServedWindowedEstimateMatchesDirectRun(t *testing.T) {
	s := testStream(t, 11, 400)
	var body bytes.Buffer
	if err := stream.WriteBinary(&body, s); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		win      int64
		halflife float64
		opt      wsd.Option
	}{
		{name: "window", win: 120, opt: wsd.WithWindow(120)},
		{name: "decay", halflife: 60, opt: wsd.WithDecay(60)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			direct, err := wsd.NewShardedCounter(wsd.TrianglePattern, 600, 3, wsd.WithSeed(9), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := direct.SubmitBatch(s); err != nil {
				t.Fatal(err)
			}
			want := direct.Close()

			srv, ts := temporalServer(t, tc.win, tc.halflife)
			post(t, ts.URL+"/ingest", body.Bytes())
			if _, err := srv.Snapshot(); err != nil { // quiesce
				t.Fatal(err)
			}
			var est struct {
				Estimate float64 `json:"estimate"`
				Window   int64   `json:"window"`
				Halflife float64 `json:"halflife"`
			}
			if err := json.Unmarshal(get(t, ts.URL+"/estimate"), &est); err != nil {
				t.Fatal(err)
			}
			if est.Estimate != want {
				t.Fatalf("served estimate %v, direct run %v", est.Estimate, want)
			}
			if est.Window != tc.win || est.Halflife != tc.halflife {
				t.Fatalf("estimate reports window=%d halflife=%v, configured window=%d halflife=%v",
					est.Window, est.Halflife, tc.win, tc.halflife)
			}
			var hz struct {
				Window   int64   `json:"window"`
				Halflife float64 `json:"halflife"`
			}
			if err := json.Unmarshal(get(t, ts.URL+"/healthz"), &hz); err != nil {
				t.Fatal(err)
			}
			if hz.Window != tc.win || hz.Halflife != tc.halflife {
				t.Fatalf("healthz reports window=%d halflife=%v, configured window=%d halflife=%v",
					hz.Window, hz.Halflife, tc.win, tc.halflife)
			}
		})
	}
}

// TestServedDegenerateModesBitIdentical is the HTTP layer of the differential
// guarantee: a server configured with an infinite window, and one with an
// infinite halflife, must serve byte-for-byte the estimate a whole-stream
// server serves on the same stream.
func TestServedDegenerateModesBitIdentical(t *testing.T) {
	s := testStream(t, 13, 400)
	var body bytes.Buffer
	if err := stream.WriteBinary(&body, s); err != nil {
		t.Fatal(err)
	}
	run := func(win int64, halflife float64) []byte {
		srv, ts := temporalServer(t, win, halflife)
		post(t, ts.URL+"/ingest", body.Bytes())
		if _, err := srv.Snapshot(); err != nil {
			t.Fatal(err)
		}
		return get(t, ts.URL+"/estimate")
	}
	whole := run(0, 0)
	if infWin := run(math.MaxInt64, 0); !bytes.Equal(stripTemporalFields(t, infWin), stripTemporalFields(t, whole)) {
		t.Fatalf("infinite-window reply %s, whole-stream %s", infWin, whole)
	}
	// halflife=+Inf normalizes to whole-stream outright, so the reply is
	// identical including the reported mode.
	if infHalf := run(0, math.Inf(1)); !bytes.Equal(infHalf, whole) {
		t.Fatalf("infinite-halflife reply %s, whole-stream %s", infHalf, whole)
	}
}

// stripTemporalFields removes the mode-reporting fields from an /estimate
// reply so degenerate modes compare on the numbers alone (an infinite window
// still honestly reports itself as windowed).
func stripTemporalFields(t *testing.T, raw []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "window")
	delete(m, "halflife")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRestoreRejectsTemporalMismatch: a snapshot taken by a windowed server
// must not restore into a whole-stream server (or vice versa) — the blob
// describes a different estimand.
func TestRestoreRejectsTemporalMismatch(t *testing.T) {
	s := testStream(t, 17, 200)
	var body bytes.Buffer
	if err := stream.WriteBinary(&body, s); err != nil {
		t.Fatal(err)
	}
	srcSrv, srcTS := temporalServer(t, 60, 0)
	post(t, srcTS.URL+"/ingest", body.Bytes())
	blob, err := srcSrv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	_, wholeTS := temporalServer(t, 0, 0)
	resp, err := http.Post(wholeTS.URL+"/restore", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("restore of windowed blob into whole-stream server = %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "temporal mode") {
		t.Fatalf("restore error %q does not name the temporal mismatch", raw)
	}

	// The matching server takes it.
	dstSrv, dstTS := temporalServer(t, 60, 0)
	resp, err = http.Post(dstTS.URL+"/restore", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore of windowed blob into windowed server = %d", resp.StatusCode)
	}
	_ = dstSrv
}

// TestCoordinatorTemporalFleet: a coordinator over windowed workers reports
// the mode in combined estimates and health, matches ?window= assertions,
// and 400s assertions for a different mode — same parameter contract as the
// single-node endpoint, including unknown-parameter rejection.
func TestCoordinatorTemporalFleet(t *testing.T) {
	s := testStream(t, 19, 300)
	var body bytes.Buffer
	if err := stream.WriteBinary(&body, s); err != nil {
		t.Fatal(err)
	}
	urls := make([]string, 3)
	for i := range urls {
		srv, err := New(Config{Pattern: wsd.TrianglePattern, M: 200, Shards: 1,
			Options: []wsd.Option{wsd.WithSeed(int64(100 + i))}, Window: 90})
		if err != nil {
			t.Fatal(err)
		}
		wts := httptest.NewServer(srv.Handler())
		t.Cleanup(wts.Close)
		t.Cleanup(func() { srv.Close() })
		urls[i] = wts.URL
	}
	coord, err := NewCoordinator(CoordinatorConfig{Cluster: cluster.Config{Workers: urls}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)

	post(t, ts.URL+"/ingest", body.Bytes())
	var est struct {
		Window   int64   `json:"window"`
		Halflife float64 `json:"halflife"`
	}
	if err := json.Unmarshal(get(t, ts.URL+"/estimate"), &est); err != nil {
		t.Fatal(err)
	}
	if est.Window != 90 || est.Halflife != 0 {
		t.Fatalf("combined estimate reports window=%d halflife=%v, fleet serves window=90", est.Window, est.Halflife)
	}
	var hz struct {
		Window int64 `json:"window"`
	}
	if err := json.Unmarshal(get(t, ts.URL+"/healthz"), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Window != 90 {
		t.Fatalf("fleet healthz reports window=%d, workers serve window=90", hz.Window)
	}
	if code, _ := getStatus(t, ts.URL+"/estimate?window=90"); code != http.StatusOK {
		t.Fatalf("matching window assertion = %d", code)
	}
	if code, body := getStatus(t, ts.URL+"/estimate?window=inf"); code != http.StatusBadRequest {
		t.Fatalf("whole-stream assertion against windowed fleet = %d: %s", code, body)
	}
	if code, body := getStatus(t, ts.URL+"/estimate?bogus=1"); code != http.StatusBadRequest || !strings.Contains(body, `"bogus"`) {
		t.Fatalf("unknown parameter on coordinator = %d: %s", code, body)
	}
}

// TestServedWindowMultiPatternEstimates: a multi-pattern deployment with a
// window serves every pattern's windowed count. Over-provisioned (one shard
// holding every live edge), /estimate?pattern= must equal the windowed
// exact count for each served pattern; the snapshot restores into a second
// windowed multi-pattern server that answers identically.
func TestServedWindowMultiPatternEstimates(t *testing.T) {
	const win = 120
	s := testStream(t, 11, 400)
	var body bytes.Buffer
	if err := stream.WriteBinary(&body, s); err != nil {
		t.Fatal(err)
	}
	newServer := func() (*Server, *httptest.Server) {
		srv, err := New(Config{Patterns: servedPatterns, M: len(s), Shards: 1,
			Options: []wsd.Option{wsd.WithSeed(9)}, Window: win})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		return srv, ts
	}
	srv, ts := newServer()
	post(t, ts.URL+"/ingest", body.Bytes())
	blob, err := srv.Snapshot() // quiesce
	if err != nil {
		t.Fatal(err)
	}
	oracle := exact.NewWindow(win, servedPatterns...)
	for _, ev := range s {
		oracle.Apply(ev)
	}
	restored, rts := newServer()
	if _, err := restored.Restore(blob); err != nil {
		t.Fatal(err)
	}
	for _, p := range servedPatterns {
		want := float64(oracle.Count(p))
		for name, url := range map[string]string{"live": ts.URL, "restored": rts.URL} {
			var est struct {
				Estimate float64 `json:"estimate"`
				Window   int64   `json:"window"`
			}
			if err := json.Unmarshal(get(t, url+"/estimate?pattern="+p.String()), &est); err != nil {
				t.Fatal(err)
			}
			if est.Estimate != want || est.Window != win {
				t.Fatalf("%s %s: served estimate %v (window %d), exact windowed count %v (window %d)",
					name, p, est.Estimate, est.Window, want, win)
			}
		}
	}
}
