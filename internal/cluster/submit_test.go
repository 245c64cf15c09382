package cluster_test

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
	"repro/internal/shard"
	"repro/internal/wal"
)

// shortApplyWorker is a fake worker whose /ingest reads the body and claims
// to have applied exactly one event, whatever the body held — a worker out
// of step with its stream that still answers 200.
func shortApplyWorker(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/ingest" {
			http.NotFound(w, r)
			return
		}
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, `{"accepted":1}`)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestClusterShortApplyNeverAcked: a worker that answers 200 but applied
// fewer events than its share holds has not applied the share. In every
// ingest mode it must end out of the serving set — lagging where its share is
// logged (replay heals it), inconsistent where it is not — and never be
// acknowledged past the events it actually holds.
func TestClusterShortApplyNeverAcked(t *testing.T) {
	s := testStream(t, 91, 300)
	budgets := shard.SplitBudget(600, 3)
	seeds := []int64{91, 92, 93}
	for _, tc := range []struct {
		name        string
		partitioned bool
		logged      bool
	}{
		{"broadcast", false, false},
		{"broadcast+WAL", false, true},
		{"partitioned", true, false},
		{"partitioned+WAL", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var urls []string
			if tc.partitioned {
				urls, _ = partitionedFleet(t, budgets, seeds)
			} else {
				urls, _ = testFleet(t, budgets, seeds)
			}
			const fake = 2
			urls[fake] = shortApplyWorker(t)
			cfg := cluster.Config{Workers: urls, Partitioned: tc.partitioned}
			if tc.logged {
				logs := make([]*wal.Log, len(urls))
				for i := range logs {
					lg, err := wal.Open(t.TempDir(), wal.Options{})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { lg.Close() })
					logs[i] = lg
				}
				if tc.partitioned {
					cfg.Logs = logs
				} else {
					cfg.Log = logs[0]
				}
			}
			coord, err := cluster.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = coord.SubmitBatch(s)
			if tc.partitioned && !errors.Is(err, cluster.ErrNoQuorum) {
				// Every partition is needed, so the short one fails the submit.
				t.Fatalf("partitioned submit with a short worker: err = %v, want ErrNoQuorum", err)
			}
			if !tc.partitioned && err != nil {
				t.Fatalf("broadcast submit (quorum holds without the short worker): %v", err)
			}
			wh := coord.Health().WorkersDetail[fake]
			if wh.Acked != 0 {
				t.Fatalf("short-applying worker acked to position %d: %+v", wh.Acked, wh)
			}
			if tc.logged && (!wh.Lagging || !wh.Consistent) {
				t.Fatalf("short apply on a logged share: want lagging (replay heals it), got %+v", wh)
			}
			if !tc.logged && wh.Consistent {
				t.Fatalf("short apply on an unlogged share: want inconsistent, got %+v", wh)
			}
		})
	}
}

// TestCoordinatorFlushSkipsWorkerThatMissedDelivery: once a dead worker has
// missed a delivery it is out of the serving set, and the barrier is over the
// workers Estimate reads — so a degraded but quorate fleet flushes, and the
// read after the barrier reflects every accepted batch.
func TestCoordinatorFlushSkipsWorkerThatMissedDelivery(t *testing.T) {
	s := testStream(t, 37, 400)
	budgets := shard.SplitBudget(600, 3)
	urls, servers := testFleet(t, budgets, []int64{211, 212, 213})
	coord, err := cluster.New(cluster.Config{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, coord, s[:200])
	servers[1].Close()
	feed(t, coord, s[200:])
	if h := coord.Health(); h.WorkersDetail[1].Consistent {
		t.Fatalf("dead worker missed a delivery but is still consistent: %+v", h.WorkersDetail[1])
	}
	if err := coord.Flush(); err != nil {
		t.Fatalf("Flush on a quorate fleet whose dead worker is excluded: %v", err)
	}
	est, err := coord.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est.Gathered != 2 || est.Processed != int64(len(s)) {
		t.Fatalf("after Flush: gathered %d, processed %d of %d; want the 2 survivors at the full stream", est.Gathered, est.Processed, len(s))
	}
	// A dead worker that has missed nothing is still serving, so the barrier
	// fails on it; once it misses a delivery the fleet is below quorum and
	// Flush says so, as Estimate does.
	servers[2].Close()
	if err := coord.Flush(); err == nil {
		t.Fatal("Flush with a dead serving worker must fail")
	}
	if err := coord.SubmitBatch(s[:10]); !errors.Is(err, cluster.ErrNoQuorum) {
		t.Fatalf("submit that leaves one worker serving: err = %v, want ErrNoQuorum", err)
	}
	if err := coord.Flush(); !errors.Is(err, cluster.ErrNoQuorum) {
		t.Fatalf("Flush below quorum: err = %v, want ErrNoQuorum", err)
	}
}
