// Partitioned-mode suite: the coordinator routes each edge to the workers
// owning its endpoints, and the visibility-corrected sum of the fleet's
// estimates must be bit-identical to independently routed reference counters
// — through failures, per-partition log replay, and snapshot restore. The
// ack-ambiguity tests live here too: delivery faults injected between a
// worker's apply and its ack must never double-apply, in either ingest mode.
package cluster_test

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	wsd "repro"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/weights"
	"repro/internal/xrand"
)

// partitionedFleet spins n single-shard triangle workers configured as
// partitions 0..n-1 of an n-way fleet and returns their URLs plus servers.
func partitionedFleet(t *testing.T, budgets []int, seeds []int64) ([]string, []*httptest.Server) {
	t.Helper()
	urls := make([]string, len(budgets))
	servers := make([]*httptest.Server, len(budgets))
	for i := range budgets {
		srv, err := serve.New(serve.Config{
			Pattern:        wsd.TrianglePattern,
			M:              budgets[i],
			Shards:         1,
			Options:        []wsd.Option{wsd.WithSeed(seeds[i])},
			PartitionIndex: i,
			PartitionCount: len(budgets),
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() { srv.Close() })
		urls[i] = ts.URL
		servers[i] = ts
	}
	return urls, servers
}

// routedReference builds the ground truth a partitioned fleet must reproduce
// bit for bit: one counter per partition with the worker's exact
// configuration (same budget, same seed sequence, same ownership weighting),
// fed only its routed substream in stream order.
func routedReference(t *testing.T, budgets []int, seeds []int64, s stream.Stream) []*core.Counter {
	t.Helper()
	n := len(budgets)
	refs := make([]*core.Counter, n)
	for i := range refs {
		c, err := core.New(core.Config{
			M:            budgets[i],
			Pattern:      wsd.TrianglePattern,
			Weight:       weights.GPSDefault(),
			Rng:          xrand.NewSequence(seeds[i], 0),
			SkipTemporal: true,
			EventWeight:  partition.EventWeight(i, n),
		})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = c
	}
	for _, ev := range s {
		a, b := partition.Owners(ev.Edge, n)
		refs[a].Process(ev)
		if b != a {
			refs[b].Process(ev)
		}
	}
	return refs
}

// referenceSum folds the routed reference counters exactly as the coordinator
// does: summation in fleet order, then the Beta visibility correction.
func referenceSum(refs []*core.Counter) float64 {
	sum := 0.0
	for _, c := range refs {
		sum += c.Estimate()
	}
	return sum / partition.Beta(wsd.TrianglePattern, len(refs))
}

// TestPartitionedClusterMatchesRoutedReference is the partitioned smoke
// check: a partitioned coordinator over 3 workers must produce exactly the
// estimate of three in-process counters fed the same routed substreams — the
// distribution across processes (and the HTTP hop, the stamping, the Sum
// combiner, the Beta division) must change nothing.
func TestPartitionedClusterMatchesRoutedReference(t *testing.T) {
	s := testStream(t, 31, 900)
	budgets := shard.SplitBudget(900, 3)
	seeds := []int64{41, 42, 43}
	urls, _ := partitionedFleet(t, budgets, seeds)
	coord, err := cluster.New(cluster.Config{Workers: urls, Partitioned: true})
	if err != nil {
		t.Fatal(err)
	}
	if !coord.Health().Partitioned {
		t.Fatal("coordinator does not report partitioned mode")
	}
	feed(t, coord, s)
	est := quiescedEstimate(t, coord)

	refs := routedReference(t, budgets, seeds, s)
	if want := referenceSum(refs); est.Estimate != want {
		t.Fatalf("partitioned cluster estimate %v, routed reference %v", est.Estimate, want)
	}
	var wantProcessed int64
	for _, ev := range s {
		a, b := partition.Owners(ev.Edge, 3)
		wantProcessed++
		if b != a {
			wantProcessed++
		}
	}
	if est.Processed != wantProcessed {
		t.Fatalf("processed %d deliveries, want %d (sum over partitions)", est.Processed, wantProcessed)
	}
	if est.Gathered != 3 || est.Degraded {
		t.Fatalf("partitioned read gathered %d, degraded=%v; need the whole fleet", est.Gathered, est.Degraded)
	}
}

// TestPartitionedSumCombineUnbiased checks the statistical contract end to
// end at serving scale: the Beta-corrected sum over generously budgeted
// partitions must land near the exact triangle count. (The acceptance-bound
// check on the harness streams lives in the root acceptance suite; this is
// the in-package guard.)
func TestPartitionedSumCombineUnbiased(t *testing.T) {
	s := testStream(t, 37, 1200)
	// Budget above the insertion count: each partition computes its
	// ownership-weighted share exactly, so the only estimation error left is
	// the hash-partition visibility approximation Beta corrects for.
	budgets := []int{2000, 2000, 2000}
	seeds := []int64{7, 8, 9}
	urls, _ := partitionedFleet(t, budgets, seeds)
	coord, err := cluster.New(cluster.Config{Workers: urls, Partitioned: true})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, coord, s)
	est := quiescedEstimate(t, coord)

	ex := wsd.NewExactCounter(wsd.TrianglePattern)
	for _, ev := range s {
		ex.Process(ev)
	}
	exact := ex.Estimate()
	if exact < 50 {
		t.Fatalf("test stream has only %.0f triangles; too few to check unbiasedness", exact)
	}
	if mre := math.Abs(est.Estimate-exact) / exact; mre > 0.25 {
		t.Fatalf("partitioned estimate %.1f vs exact %.1f (relative error %.3f); the Beta correction is off", est.Estimate, exact, mre)
	}
}

// partitionedWALFleet builds n restartable partitioned workers and a
// partitioned coordinator with one write-ahead log per partition.
func partitionedWALFleet(t *testing.T, budgets []int, seeds []int64, opts wal.Options) ([]*restartableWorker, *cluster.Coordinator, []*wal.Log) {
	t.Helper()
	n := len(budgets)
	workers := make([]*restartableWorker, n)
	urls := make([]string, n)
	logs := make([]*wal.Log, n)
	for i := range budgets {
		workers[i] = newRestartablePartitionWorker(t, budgets[i], seeds[i], i, n)
		urls[i] = "http://" + workers[i].addr
		lg, err := wal.Open(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lg.Close() })
		logs[i] = lg
	}
	coord, err := cluster.New(cluster.Config{Workers: urls, Partitioned: true, Logs: logs})
	if err != nil {
		t.Fatal(err)
	}
	return workers, coord, logs
}

// newRestartablePartitionWorker is newRestartableWorker with a partition
// slot: the restarted-empty worker keeps its slot, as a redeployed pod would.
func newRestartablePartitionWorker(t *testing.T, budget int, seed int64, idx, count int) *restartableWorker {
	t.Helper()
	w := newRestartableWorker(t, budget, seed)
	w.partitionIndex, w.partitionCount = idx, count
	// Cycle once so the running server carries the slot from the first
	// request on (the fields land on restart).
	w.kill()
	w.restart(t)
	return w
}

// TestPartitionedWorkerKillRestartCatchUpIdempotent kills one partition
// mid-stream and restarts it empty: per-partition log replay alone must
// rebuild exactly the routed substream, and the healed fleet's estimate must
// be bit-identical to the uninterrupted reference. The stamps make the heal
// safe to race: replay chunks arriving around live traffic are deduplicated
// by position, never double-applied.
func TestPartitionedWorkerKillRestartCatchUpIdempotent(t *testing.T) {
	s := testStream(t, 53, 700)
	budgets := shard.SplitBudget(700, 3)
	seeds := []int64{11, 12, 13}
	workers, coord, _ := partitionedWALFleet(t, budgets, seeds, wal.Options{SegmentBytes: 1 << 20})

	cut := len(s) / 2
	feed(t, coord, s[:cut])
	workers[1].kill()
	// The fleet refuses ingest below full strength the moment the dead
	// partition is noticed (its share has nowhere sound to go), so push one
	// batch to trip the failure detector, then bring the worker back.
	if err := coord.SubmitBatch(s[cut : cut+32]); err == nil {
		// The dead worker may not own any endpoint in this batch; that is
		// legitimate — routing simply had nothing for it.
		n := 0
		for _, ev := range s[cut : cut+32] {
			a, b := partition.Owners(ev.Edge, 3)
			if a == 1 || b == 1 {
				n++
			}
		}
		if n > 0 {
			t.Fatalf("submit with a dead partition owning %d events unexpectedly succeeded", n)
		}
	}
	workers[1].restart(t)
	if err := coord.CatchUp(); err != nil {
		t.Fatalf("catch-up after restart: %v", err)
	}
	feed(t, coord, s[cut+32:])
	// No re-delivery of the errored batch: it was appended to every partition
	// log before fan-out and applied by the healthy partitions, so the replay
	// above completed the dead partition's share and the fleet has seen all of
	// s exactly once.
	est := quiescedEstimate(t, coord)

	refs := routedReference(t, budgets, seeds, s)
	if want := referenceSum(refs); est.Estimate != want {
		t.Fatalf("healed partitioned estimate %v, uninterrupted reference %v", est.Estimate, want)
	}
}

// TestPartitionedSnapshotRestoreReplaysTail checks restore-from-blob plus
// per-partition tail replay: a blob taken mid-stream restores onto logs that
// have since grown, each partition's mark seeds its ack, and replay carries
// every partition independently to its own log end — bit-identical to the
// uninterrupted reference.
func TestPartitionedSnapshotRestoreReplaysTail(t *testing.T) {
	s := testStream(t, 59, 700)
	budgets := shard.SplitBudget(700, 3)
	seeds := []int64{21, 22, 23}
	workers, coord, logs := partitionedWALFleet(t, budgets, seeds, wal.Options{SegmentBytes: 1 << 20})

	cut := len(s) / 2
	feed(t, coord, s[:cut])
	blob, err := coord.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	feed(t, coord, s[cut:])
	endEvents := make([]int64, len(logs))
	for i, lg := range logs {
		endEvents[i] = lg.Events()
	}

	// Lose a worker's state entirely, then restore the mid-stream blob onto
	// the whole fleet: the per-partition marks position every worker at the
	// blob, and replay must finish the job per partition.
	workers[2].kill()
	workers[2].restart(t)
	if err := coord.Restore(blob); err != nil {
		t.Fatalf("restore mid-stream blob: %v", err)
	}
	est := quiescedEstimate(t, coord)
	refs := routedReference(t, budgets, seeds, s)
	if want := referenceSum(refs); est.Estimate != want {
		t.Fatalf("restored partitioned estimate %v, uninterrupted reference %v", est.Estimate, want)
	}
	for i, lg := range logs {
		if lg.Events() != endEvents[i] {
			t.Fatalf("partition %d log moved from %d to %d events across restore", i, endEvents[i], lg.Events())
		}
	}
}

// TestPartitionedRestoreRefusesModeMismatch pins the blob/mode cross-checks:
// a broadcast blob must not restore onto a partitioned coordinator (worker
// blobs would carry whole-stream samples into share-weighted counters) nor
// the reverse.
func TestPartitionedRestoreRefusesModeMismatch(t *testing.T) {
	budgets := shard.SplitBudget(600, 3)
	seeds := []int64{1, 2, 3}
	purls, _ := partitionedFleet(t, budgets, seeds)
	pcoord, err := cluster.New(cluster.Config{Workers: purls, Partitioned: true})
	if err != nil {
		t.Fatal(err)
	}
	burls, _ := testFleet(t, budgets, seeds)
	bcoord, err := cluster.New(cluster.Config{Workers: burls})
	if err != nil {
		t.Fatal(err)
	}
	pblob, err := pcoord.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bblob, err := bcoord.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := pcoord.Restore(bblob); err == nil || !strings.Contains(err.Error(), "broadcast") {
		t.Fatalf("partitioned coordinator accepted a broadcast blob (err=%v)", err)
	}
	if err := bcoord.Restore(pblob); err == nil || !strings.Contains(err.Error(), "partitioned") {
		t.Fatalf("broadcast coordinator accepted a partitioned blob (err=%v)", err)
	}
}

// TestPartitionedHealthVerifiesSlots pins the deployment cross-checks in
// /healthz: a partitioned coordinator over workers with no partition slots
// (or the wrong ones) must degrade, and a broadcast coordinator over
// partition-weighted workers must degrade — both silently bias every read if
// allowed to show green.
func TestPartitionedHealthVerifiesSlots(t *testing.T) {
	budgets := shard.SplitBudget(600, 3)
	seeds := []int64{1, 2, 3}

	// Unpartitioned workers under a partitioned coordinator.
	burls, _ := testFleet(t, budgets, seeds)
	pcoord, err := cluster.New(cluster.Config{Workers: burls, Partitioned: true})
	if err != nil {
		t.Fatal(err)
	}
	h := pcoord.Health()
	if h.Status != "degraded" {
		t.Fatalf("partitioned coordinator over slotless workers reports %q, want degraded", h.Status)
	}
	if !h.Partitioned {
		t.Fatal("health does not report partitioned mode")
	}
	found := false
	for _, wd := range h.WorkersDetail {
		if strings.Contains(wd.Error, "not configured for partitioned ingest") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no worker detail names the missing partition slot: %+v", h.WorkersDetail)
	}

	// Partition-weighted workers under a broadcast coordinator.
	purls, _ := partitionedFleet(t, budgets, seeds)
	bcoord, err := cluster.New(cluster.Config{Workers: purls})
	if err != nil {
		t.Fatal(err)
	}
	if h := bcoord.Health(); h.Status != "degraded" {
		t.Fatalf("broadcast coordinator over partitioned workers reports %q, want degraded", h.Status)
	}

	// The matched deployment is green.
	pcoord2, err := cluster.New(cluster.Config{Workers: purls, Partitioned: true})
	if err != nil {
		t.Fatal(err)
	}
	if h := pcoord2.Health(); h.Status != "ok" {
		t.Fatalf("matched partitioned deployment reports %q, want ok: %+v", h.Status, h.WorkersDetail)
	}
}

// TestPartitionedConfigValidation pins New's partitioned-mode rules.
func TestPartitionedConfigValidation(t *testing.T) {
	urls := []string{"http://a:1", "http://b:2", "http://c:3"}
	lg := func() *wal.Log {
		l, err := wal.Open(t.TempDir(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}
	cases := []struct {
		name string
		cfg  cluster.Config
		want string
	}{
		{"combiner", cluster.Config{Workers: urls, Partitioned: true, Combiner: func(xs []float64) float64 { return 0 }}, "do not set Combiner"},
		{"quorum", cluster.Config{Workers: urls, Partitioned: true, Quorum: 2}, "whole fleet"},
		{"single-log", cluster.Config{Workers: urls, Partitioned: true, Log: lg()}, "set Logs"},
		{"short-logs", cluster.Config{Workers: urls, Partitioned: true, Logs: []*wal.Log{lg()}}, "index-aligned"},
		{"nil-log-entry", cluster.Config{Workers: urls, Partitioned: true, Logs: []*wal.Log{lg(), nil, lg()}}, "is nil"},
		{"logs-on-broadcast", cluster.Config{Workers: urls, Logs: []*wal.Log{lg(), lg(), lg()}}, "partitioned mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := cluster.New(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, want error containing %q", err, tc.want)
			}
		})
	}
	// Quorum equal to the fleet size is explicitly allowed (it is what the
	// mode pins anyway).
	if _, err := cluster.New(cluster.Config{Workers: urls, Partitioned: true, Quorum: 3}); err != nil {
		t.Fatalf("fleet-size quorum rejected: %v", err)
	}
}

// duplicatingTransport delivers one armed /ingest request to its worker
// twice — the wire-level duplicate behind the ack ambiguity: a retry or
// replay racing a delivery that already applied. The response returned to
// the coordinator is the second (duplicate) delivery's, as a retransmit's
// would be.
type duplicatingTransport struct {
	base   http.RoundTripper
	mu     sync.Mutex
	target string // host to duplicate against
	armed  bool
	fired  bool
}

func (d *duplicatingTransport) arm(host string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.target, d.armed = host, true
}

func (d *duplicatingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	d.mu.Lock()
	fire := d.armed && req.URL.Path == "/ingest" && req.URL.Host == d.target
	if fire {
		d.armed, d.fired = false, true
	}
	d.mu.Unlock()
	if !fire {
		return d.base.RoundTrip(req)
	}
	first, err := d.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	io.Copy(io.Discard, first.Body)
	first.Body.Close()
	dup := req.Clone(req.Context())
	body, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	dup.Body = body
	return d.base.RoundTrip(dup)
}

// TestClusterAckAmbiguityDelayedDuplicate injects a duplicated delivery on
// the broadcast log path: one batch reaches a worker twice. Without
// position-stamped idempotence the worker double-applies and drifts from the
// fleet silently (it still acks); with it, the duplicate is skipped, the
// reply accounts for it, and the final estimate is bit-identical to an
// uninterrupted ensemble.
func TestClusterAckAmbiguityDelayedDuplicate(t *testing.T) {
	s := testStream(t, 61, 600)
	budgets := shard.SplitBudget(600, 3)
	seeds := []int64{31, 32, 33}
	workers := make([]*restartableWorker, 3)
	urls := make([]string, 3)
	for i := range workers {
		workers[i] = newRestartableWorker(t, budgets[i], seeds[i])
		urls[i] = "http://" + workers[i].addr
	}
	lg, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lg.Close() })
	dt := &duplicatingTransport{base: http.DefaultTransport}
	coord, err := cluster.New(cluster.Config{Workers: urls, Log: lg, Client: &http.Client{Transport: dt}})
	if err != nil {
		t.Fatal(err)
	}

	cut := len(s) / 2
	feed(t, coord, s[:cut])
	dt.arm(workers[1].addr)
	feed(t, coord, s[cut:])
	dt.mu.Lock()
	fired := dt.fired
	dt.mu.Unlock()
	if !fired {
		t.Fatal("fault never fired; the test exercised nothing")
	}

	ref := referenceEnsemble(t, budgets, seeds)
	if err := ref.SubmitBatch(s); err != nil {
		t.Fatal(err)
	}
	est := quiescedEstimate(t, coord)
	if want := ref.Close(); est.Estimate != want {
		t.Fatalf("estimate after duplicated delivery %v, uninterrupted reference %v", est.Estimate, want)
	}
}

// lostResponseTransport delivers one armed /ingest request normally but
// reports a transport error to the caller — the other face of the ack
// ambiguity: the worker applied, the coordinator cannot know.
type lostResponseTransport struct {
	base   http.RoundTripper
	mu     sync.Mutex
	target string
	armed  bool
	fired  bool
}

func (l *lostResponseTransport) arm(host string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.target, l.armed = host, true
}

func (l *lostResponseTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	l.mu.Lock()
	fire := l.armed && req.URL.Path == "/ingest" && req.URL.Host == l.target
	if fire {
		l.armed, l.fired = false, true
	}
	l.mu.Unlock()
	resp, err := l.base.RoundTrip(req)
	if !fire || err != nil {
		return resp, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil, fmt.Errorf("injected: connection lost between apply and ack")
}

// TestClusterAckAmbiguityTimeoutAfterApply injects the apply-then-lost-ack
// fault: the worker applies a broadcast but the coordinator sees a transport
// error and marks it lagging at its stale ack. The heal replays the tail
// from that stale position — stamped, so the events the worker already holds
// come back as duplicates instead of double-applying — and the healed fleet
// is bit-identical to an uninterrupted ensemble.
func TestClusterAckAmbiguityTimeoutAfterApply(t *testing.T) {
	s := testStream(t, 67, 600)
	budgets := shard.SplitBudget(600, 3)
	seeds := []int64{51, 52, 53}
	workers := make([]*restartableWorker, 3)
	urls := make([]string, 3)
	for i := range workers {
		workers[i] = newRestartableWorker(t, budgets[i], seeds[i])
		urls[i] = "http://" + workers[i].addr
	}
	lg, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lg.Close() })
	lt := &lostResponseTransport{base: http.DefaultTransport}
	coord, err := cluster.New(cluster.Config{Workers: urls, Log: lg, Client: &http.Client{Transport: lt}})
	if err != nil {
		t.Fatal(err)
	}

	cut := len(s) / 2
	feed(t, coord, s[:cut])
	lt.arm(workers[2].addr)
	// This batch applies on worker 2 but its ack is lost; the coordinator
	// must treat the outcome as unknown (lagging), not as applied.
	if err := coord.SubmitBatch(s[cut : cut+64]); err != nil && !errors.Is(err, cluster.ErrNoQuorum) {
		t.Fatalf("submit through fault: %v", err)
	}
	lt.mu.Lock()
	fired := lt.fired
	lt.mu.Unlock()
	if !fired {
		t.Fatal("fault never fired; the test exercised nothing")
	}
	// Heal explicitly (the broadcast path would after backoff): the replay
	// covers the ambiguous batch again, and stamping resolves the ambiguity
	// on the worker instead of in the coordinator's guesswork.
	if err := coord.CatchUp(); err != nil {
		t.Fatalf("catch-up over ambiguous ack: %v", err)
	}
	feed(t, coord, s[cut+64:])

	ref := referenceEnsemble(t, budgets, seeds)
	if err := ref.SubmitBatch(s); err != nil {
		t.Fatal(err)
	}
	est := quiescedEstimate(t, coord)
	if want := ref.Close(); est.Estimate != want {
		t.Fatalf("estimate after lost ack %v, uninterrupted reference %v", est.Estimate, want)
	}
}

// TestRetentionPinnedWhenFleetInconsistent is the regression test for the
// min-ack retention bug: when no consistent worker remains, the fleet's acks
// are stale bookmarks with no live state behind them, and truncating to their
// minimum can retire exactly the tail a snapshot restore needs. The flow that
// exposes it: Restore advances every ack to the log end *without* truncating
// (only the submit path truncates behind acks), so once the fleet then goes
// inconsistent, min-ack reads "log end" — the buggy coordinator truncated
// there and turned a healable outage into data loss.
func TestRetentionPinnedWhenFleetInconsistent(t *testing.T) {
	s := testStream(t, 71, 600)
	budgets := shard.SplitBudget(600, 2)
	seeds := []int64{81, 82}
	workers := make([]*restartableWorker, 2)
	urls := make([]string, 2)
	for i := range workers {
		workers[i] = newRestartableWorker(t, budgets[i], seeds[i])
		urls[i] = "http://" + workers[i].addr
	}
	// Tiny segments so the stream seals into segments retention could
	// actually remove, and quorum 1 so the fleet keeps ingesting (and
	// logging) past a dead worker.
	lg, err := wal.Open(t.TempDir(), wal.Options{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lg.Close() })
	coord, err := cluster.New(cluster.Config{Workers: urls, Log: lg, Quorum: 1})
	if err != nil {
		t.Fatal(err)
	}

	cut := len(s) / 2
	feed(t, coord, s[:cut])
	blob, err := coord.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// One worker dies; quorum 1 keeps the fleet ingesting, and the dead
	// worker's ack — stuck at the blob's position — pins retention below it.
	workers[1].kill()
	feed(t, coord, s[cut:])
	// Bring the dead worker back empty and restore the mid-stream blob onto
	// the whole fleet: Restore seeds every ack at the blob's position and
	// replays both workers to the log end — advancing the acks with NO
	// truncation, which is exactly the state the bug mistook for safety.
	workers[1].restart(t)
	if err := coord.Restore(blob); err != nil {
		t.Fatalf("restore mid-stream blob: %v", err)
	}
	baseBefore := lg.Base()
	if baseBefore >= lg.End() {
		t.Fatalf("log base %d already at end %d; the test retained no tail to protect", baseBefore, lg.End())
	}

	// Now lose the whole fleet to out-of-band state: both workers restart
	// empty and take a few events that align with no logged frame boundary,
	// so the next probe marks every worker inconsistent.
	for _, w := range workers {
		w.kill()
		w.restart(t)
		resp, err := http.Post("http://"+w.addr+"/ingest", "text/plain", strings.NewReader("+ 1 2\n+ 2 3\n+ 1 3\n"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err := coord.CatchUp(); err == nil || !errors.Is(err, cluster.ErrCatchUpIncomplete) {
		t.Fatalf("catch-up over an out-of-band fleet = %v, want ErrCatchUpIncomplete", err)
	}
	// The acks still read "log end", but no consistent state backs them:
	// truncating to their minimum here (the bug) retires the whole tail above
	// the blob and makes the restore below impossible.
	if got := lg.Base(); got != baseBefore {
		t.Fatalf("retention advanced from %d to %d on the stale acks of an all-inconsistent fleet; the restore tail is gone", baseBefore, got)
	}

	// The pinned tail is what makes the heal possible: restore the blob and
	// let replay finish, then verify against the uninterrupted reference.
	if err := coord.Restore(blob); err != nil {
		t.Fatalf("restore after pinned retention: %v", err)
	}
	ref := referenceEnsemble(t, budgets, seeds)
	if err := ref.SubmitBatch(s); err != nil {
		t.Fatal(err)
	}
	est := quiescedEstimate(t, coord)
	if want := ref.Close(); est.Estimate != want {
		t.Fatalf("healed estimate %v, uninterrupted reference %v", est.Estimate, want)
	}
}
