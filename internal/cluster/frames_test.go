package cluster_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/wal"
)

// recordingTransport keeps every /ingest body, per worker host, in send
// order: the frames the fleet was actually delivered.
type recordingTransport struct {
	base   http.RoundTripper
	mu     sync.Mutex
	bodies map[string][][]byte
}

func (r *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/ingest" {
		body, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(body)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		r.bodies[req.URL.Host] = append(r.bodies[req.URL.Host], raw)
		r.mu.Unlock()
	}
	return r.base.RoundTrip(req)
}

// framePayloads splits binary /ingest bodies into their frame payloads.
func framePayloads(t *testing.T, bodies [][]byte) [][]byte {
	t.Helper()
	header := stream.AppendBinaryHeader(nil)
	var out [][]byte
	for _, body := range bodies {
		if !bytes.HasPrefix(body, header) {
			t.Fatalf("ingest body does not start with the binary stream header")
		}
		for rest := body[len(header):]; len(rest) > 0; {
			n, k := binary.Uvarint(rest)
			if k <= 0 || uint64(len(rest)-k) < n {
				t.Fatalf("ingest body holds a torn frame")
			}
			out = append(out, rest[k:k+int(n)])
			rest = rest[k+int(n):]
		}
	}
	return out
}

// loggedPayloads copies every payload a log retains, in position order.
func loggedPayloads(t *testing.T, lg *wal.Log) [][]byte {
	t.Helper()
	var out [][]byte
	if err := lg.ReplayPayloads(lg.Base(), func(_ uint64, _ int, payload []byte) error {
		out = append(out, bytes.Clone(payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWALFramesAreDeliveredFrames pins the durability invariant at the byte
// level: the coordinator encodes each frame once and hands the same bytes to
// the log and the wire, so every worker's received frame payloads equal its
// slot's logged payloads exactly — in broadcast mode (one log, every worker)
// and in partitioned mode (one log per worker). Replay heals a worker by
// re-sending logged frames, so any divergence here would heal it onto a
// different stream than the one its peers were sent.
func TestWALFramesAreDeliveredFrames(t *testing.T) {
	s := testStream(t, 67, 600)
	budgets := shard.SplitBudget(600, 3)
	seeds := []int64{141, 142, 143}
	for _, partitioned := range []bool{false, true} {
		name := "broadcast"
		if partitioned {
			name = "partitioned"
		}
		t.Run(name, func(t *testing.T) {
			workers := make([]*restartableWorker, len(budgets))
			urls := make([]string, len(budgets))
			for i := range budgets {
				if partitioned {
					workers[i] = newRestartablePartitionWorker(t, budgets[i], seeds[i], i, len(budgets))
				} else {
					workers[i] = newRestartableWorker(t, budgets[i], seeds[i])
				}
				urls[i] = "http://" + workers[i].addr
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
			rec := &recordingTransport{base: http.DefaultTransport, bodies: map[string][][]byte{}}
			cfg := cluster.Config{Workers: urls, Partitioned: partitioned, Client: &http.Client{Transport: rec}}
			if partitioned {
				cfg.Logs = logs
			} else {
				cfg.Log = logs[0]
			}
			coord, err := cluster.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Batches of uneven sizes, so shares (and, partitioned, empty
			// shares) vary from submit to submit.
			lo := 0
			for _, n := range []int{1, 7, 64, 200, 513} {
				if err := coord.SubmitBatch(s[lo : lo+n]); err != nil {
					t.Fatal(err)
				}
				lo += n
			}
			feed(t, coord, s[lo:])

			for i, w := range workers {
				lg := logs[0]
				if partitioned {
					lg = logs[i]
				}
				want := loggedPayloads(t, lg)
				got := framePayloads(t, rec.bodies[w.addr])
				if len(want) < 5 {
					t.Fatalf("worker %d: slot log holds %d frames; the test needs several batches", i, len(want))
				}
				if len(got) != len(want) {
					t.Fatalf("worker %d received %d frames, its log holds %d", i, len(got), len(want))
				}
				for j := range want {
					if !bytes.Equal(got[j], want[j]) {
						t.Fatalf("worker %d frame %d: delivered %x, logged %x", i, j, got[j], want[j])
					}
				}
			}
		})
	}
}
