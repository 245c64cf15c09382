package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"sync"
	"testing"

	wsd "repro"

	"repro/internal/stream"
)

// TestRaceIngestSnapshotRestore hammers one server with concurrent /ingest,
// /snapshot, /restore and /estimate traffic. Run under -race in CI, it is the
// regression net for the swap lock: no request may ever observe a torn
// counter state — a snapshot that doesn't decode to the configured
// deployment shape, an estimate that isn't a finite number, or a submit that
// lands on a closed ensemble (all ingests must return 200: the read lock
// pins the live ensemble for the duration of a request, so a concurrent
// restore can never close it mid-submit).
func TestRaceIngestSnapshotRestore(t *testing.T) {
	const (
		pat    = wsd.TrianglePattern
		m      = 600
		shards = 3
	)
	srv, err := New(Config{Pattern: pat, M: m, Shards: shards,
		Options: []wsd.Option{wsd.WithSeed(21)}})
	if err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()
	defer srv.Close()

	s := testStream(t, 23, 500)
	per := (len(s) + 5) / 6
	var chunks [][]byte
	for lo := 0; lo < len(s); lo += per {
		hi := min(lo+per, len(s))
		var buf bytes.Buffer
		if err := stream.WriteBinary(&buf, s[lo:hi]); err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, buf.Bytes())
	}

	// A valid restore body: the pristine deployment's own snapshot.
	seedSnap, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Requests go straight to the handler (httptest.ResponseRecorder would
	// work too, but the client stack adds nothing here and slows -race runs).
	roundTrip := func(method, path string, body []byte) (int, []byte) {
		req, err := http.NewRequest(method, path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder()
		handler.ServeHTTP(rec, req)
		return rec.code, rec.body.Bytes()
	}

	var wg sync.WaitGroup
	for _, chunk := range chunks {
		wg.Add(1)
		go func(chunk []byte) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				code, body := roundTrip(http.MethodPost, "/ingest", chunk)
				if code != http.StatusOK {
					t.Errorf("/ingest: status %d: %s", code, body)
					return
				}
			}
		}(chunk)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				code, body := roundTrip(http.MethodGet, "/snapshot", nil)
				if code != http.StatusOK {
					t.Errorf("/snapshot: status %d", code)
					return
				}
				info, err := wsd.InspectShardedSnapshot(body)
				if err != nil {
					t.Errorf("/snapshot returned a torn blob: %v", err)
					return
				}
				if !slices.Equal(info.Patterns, []wsd.Pattern{pat}) || info.Shards != shards || info.TotalM != m {
					t.Errorf("/snapshot shape %+v, want pattern %v, %d shards, total M %d", info, pat, shards, m)
					return
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				code, body := roundTrip(http.MethodPost, "/restore", seedSnap)
				if code != http.StatusOK {
					t.Errorf("/restore: status %d: %s", code, body)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			code, body := roundTrip(http.MethodGet, "/estimate", nil)
			if code != http.StatusOK {
				t.Errorf("/estimate: status %d", code)
				return
			}
			var est struct {
				Estimate  float64 `json:"estimate"`
				Processed int64   `json:"processed"`
			}
			if err := json.Unmarshal(body, &est); err != nil {
				t.Errorf("/estimate: bad JSON: %v", err)
				return
			}
			if math.IsNaN(est.Estimate) || math.IsInf(est.Estimate, 0) || est.Processed < 0 {
				t.Errorf("/estimate: torn state: %+v", est)
				return
			}
		}
	}()
	wg.Wait()

	// The server must still be fully functional after the storm.
	code, body := roundTrip(http.MethodGet, "/snapshot", nil)
	if code != http.StatusOK {
		t.Fatalf("final /snapshot: status %d", code)
	}
	if _, err := wsd.InspectShardedSnapshot(body); err != nil {
		t.Fatalf("final snapshot does not decode: %v", err)
	}
}

// recorder is a minimal concurrent-safe ResponseWriter; httptest's recorder
// would do, but this keeps the hot loop allocation-light under -race.
type recorder struct {
	code   int
	body   bytes.Buffer
	header http.Header
}

func newRecorder() *recorder { return &recorder{code: http.StatusOK, header: http.Header{}} }

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) { r.code = code }

func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }
