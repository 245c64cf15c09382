// Package cluster_test drives the coordinator against real in-process
// wsdserve workers over httptest; it lives outside the cluster package
// because it builds the workers through internal/serve, which itself imports
// cluster for the coordinator front end.
package cluster_test

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	wsd "repro"

	"repro/internal/cluster"
	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/weights"
	"repro/internal/xrand"
)

// testFleet spins n in-process wsdserve workers, each a single-shard triangle
// counter with budget budgets[i] and facade seed seeds[i], and returns their
// URLs plus the httptest servers (close them to simulate worker death).
func testFleet(t *testing.T, budgets []int, seeds []int64) ([]string, []*httptest.Server) {
	t.Helper()
	urls := make([]string, len(budgets))
	servers := make([]*httptest.Server, len(budgets))
	for i := range budgets {
		srv, err := serve.New(serve.Config{
			Pattern: wsd.TrianglePattern,
			M:       budgets[i],
			Shards:  1,
			Options: []wsd.Option{wsd.WithSeed(seeds[i])},
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

func testStream(t *testing.T, seed int64, n int) stream.Stream {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := gen.HolmeKim(n, 4, 0.6, rng)
	return stream.LightDeletion(edges, 0.2, rng)
}

// feed pushes the stream through the coordinator in modest batches, the way
// a socket ingester would.
func feed(t *testing.T, c *cluster.Coordinator, s stream.Stream) {
	t.Helper()
	const batch = 128
	for lo := 0; lo < len(s); lo += batch {
		hi := min(lo+batch, len(s))
		if err := c.SubmitBatch(s[lo:hi]); err != nil {
			t.Fatalf("submit events [%d:%d): %v", lo, hi, err)
		}
	}
}

// quiescedEstimate snapshots the cluster (which quiesces every worker, so
// estimates reflect every ingested event) and then gathers.
func quiescedEstimate(t *testing.T, c *cluster.Coordinator) *cluster.Estimate {
	t.Helper()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	est, err := c.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestCoordinatorMatchesInProcessEnsemble is the cluster smoke check: a
// coordinator over 3 single-shard workers must produce *exactly* the
// combined estimate of an in-process 3-shard ensemble built from identically
// seeded, identically budgeted counters — same members, same combine math
// (internal/combine in both cases), so the distribution across processes
// must change nothing.
func TestCoordinatorMatchesInProcessEnsemble(t *testing.T) {
	s := testStream(t, 21, 500)
	budgets := shard.SplitBudget(600, 3)
	seeds := []int64{101, 102, 103}

	// The in-process reference: the same three counters the workers run
	// (facade single-shard construction uses xrand.NewSequence(seed, 0) and
	// the default heuristic with temporal features skipped).
	counters := make([]shard.Counter, 3)
	for i := range counters {
		c, err := core.New(core.Config{
			M:            budgets[i],
			Pattern:      wsd.TrianglePattern,
			Weight:       weights.GPSDefault(),
			Rng:          xrand.NewSequence(seeds[i], 0),
			SkipTemporal: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		counters[i] = c
	}
	ens, err := shard.New(counters)
	if err != nil {
		t.Fatal(err)
	}
	if err := ens.SubmitBatch(s); err != nil {
		t.Fatal(err)
	}
	want := ens.Close()

	urls, _ := testFleet(t, budgets, seeds)
	coord, err := cluster.New(cluster.Config{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, coord, s)
	est := quiescedEstimate(t, coord)
	if est.Estimate != want {
		t.Fatalf("cluster estimate %v, in-process ensemble %v (must match exactly)", est.Estimate, want)
	}
	if est.Gathered != 3 || est.Degraded || !contains(est.Patterns, "triangle") {
		t.Fatalf("healthy-read metadata wrong: %+v", est)
	}
	if est.Processed != int64(len(s)) {
		t.Fatalf("processed %d of %d", est.Processed, len(s))
	}
	if len(est.WorkerEstimates) != 3 {
		t.Fatalf("worker estimates %v, want 3 entries", est.WorkerEstimates)
	}
}

// TestCoordinatorMedianOfMeansCombiner: the configured combiner must be
// applied to the gathered worker estimates with the shared combine math.
func TestCoordinatorMedianOfMeansCombiner(t *testing.T) {
	s := testStream(t, 5, 300)
	budgets := shard.SplitBudget(450, 3)
	seeds := []int64{7, 8, 9}
	urls, _ := testFleet(t, budgets, seeds)
	coord, err := cluster.New(cluster.Config{Workers: urls, Combiner: combine.MedianOfMeans(3)})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, coord, s)
	est := quiescedEstimate(t, coord)
	want := combine.MedianOfMeans(3)(append([]float64(nil), est.WorkerEstimates...))
	if est.Estimate != want {
		t.Fatalf("combined %v, median-of-means over worker estimates %v", est.Estimate, want)
	}
}

// TestClusterSnapshotRestoreBitIdentical is the e2e checkpoint check: ingest
// half the stream, snapshot the cluster, restore the blob onto a fresh
// fleet, ingest the rest there — the final estimate must equal a cluster
// that saw the whole stream uninterrupted, bit for bit.
func TestClusterSnapshotRestoreBitIdentical(t *testing.T) {
	s := testStream(t, 33, 600)
	cut := len(s) / 2
	budgets := shard.SplitBudget(600, 3)
	seeds := []int64{11, 12, 13}

	// Fleet A: the uninterrupted run.
	urlsA, _ := testFleet(t, budgets, seeds)
	coordA, err := cluster.New(cluster.Config{Workers: urlsA})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, coordA, s)
	want := quiescedEstimate(t, coordA).Estimate

	// Fleet B: interrupted mid-stream and checkpointed.
	urlsB, _ := testFleet(t, budgets, seeds)
	coordB, err := cluster.New(cluster.Config{Workers: urlsB})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, coordB, s[:cut])
	blob, err := coordB.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.DecodeSnapshot(blob); err != nil {
		t.Fatalf("snapshot blob not recognized as a cluster snapshot: %v", err)
	}

	// Fleet C: brand-new workers (deliberately different construction seeds
	// — the snapshot carries the RNG state, so the boot seed must not
	// matter), restored from the blob, fed the remainder.
	urlsC, _ := testFleet(t, budgets, []int64{991, 992, 993})
	coordC, err := cluster.New(cluster.Config{Workers: urlsC})
	if err != nil {
		t.Fatal(err)
	}
	if err := coordC.Restore(blob); err != nil {
		t.Fatal(err)
	}
	feed(t, coordC, s[cut:])
	if got := quiescedEstimate(t, coordC).Estimate; got != want {
		t.Fatalf("restored cluster estimate %v, uninterrupted %v (must be bit-identical)", got, want)
	}
}

// TestDegradedReadAfterWorkerDeath is the survivability check: killing one
// of three workers must leave the cluster serving from the survivors with
// the degradation reported; killing two (below the majority quorum) must
// stop reads with ErrNoQuorum.
func TestDegradedReadAfterWorkerDeath(t *testing.T) {
	s := testStream(t, 17, 400)
	budgets := shard.SplitBudget(600, 3)
	seeds := []int64{31, 32, 33}
	urls, servers := testFleet(t, budgets, seeds)
	coord, err := cluster.New(cluster.Config{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, coord, s)
	healthy := quiescedEstimate(t, coord)

	servers[1].Close()

	est, err := coord.Estimate()
	if err != nil {
		t.Fatalf("degraded read failed outright: %v", err)
	}
	if est.Gathered != 2 || !est.Degraded {
		t.Fatalf("degraded read metadata: %+v, want gathered=2 degraded=true", est)
	}
	// The survivors' mean: exactly the healthy read's worker estimates 0 and
	// 2 combined.
	want := combine.Mean([]float64{healthy.WorkerEstimates[0], healthy.WorkerEstimates[2]})
	if est.Estimate != want {
		t.Fatalf("degraded estimate %v, survivors' mean %v", est.Estimate, want)
	}

	// A degraded-but-quorate cluster reports itself truthfully.
	h := coord.Health()
	if h.Status != "degraded" || h.Serving != 2 || !h.HasQuorum {
		t.Fatalf("health after one death: %+v", h)
	}

	// Ingest keeps flowing to the survivors (quorum 2 of 3 still holds); the
	// dead worker is now inconsistent and stays excluded.
	if err := coord.SubmitBatch(s[:10]); err != nil {
		t.Fatalf("ingest after one death: %v", err)
	}

	// A whole-fleet snapshot must refuse while a worker is missing: the blob
	// could not restore the full cluster.
	if _, err := coord.Snapshot(); err == nil {
		t.Fatal("snapshot of a degraded cluster must fail")
	}

	servers[2].Close()
	if _, err := coord.Estimate(); err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("read below quorum: err = %v, want quorum error", err)
	}
	if h := coord.Health(); h.Status != "unavailable" || h.HasQuorum {
		t.Fatalf("health below quorum: %+v", h)
	}
}

// TestIngestMarksMissedWorkerInconsistent: a worker that misses a broadcast
// must be excluded from subsequent reads even if it comes back — its counter
// no longer summarizes the full stream.
func TestIngestMarksMissedWorkerInconsistent(t *testing.T) {
	s := testStream(t, 3, 200)
	budgets := shard.SplitBudget(300, 3)
	urls, servers := testFleet(t, budgets, []int64{1, 2, 3})
	coord, err := cluster.New(cluster.Config{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, coord, s[:100])

	servers[0].Close()
	if err := coord.SubmitBatch(s[100:150]); err != nil {
		t.Fatalf("broadcast with one dead worker (quorum holds): %v", err)
	}
	h := coord.Health()
	if h.WorkersDetail[0].Consistent {
		t.Fatalf("worker 0 missed a broadcast but is still consistent: %+v", h)
	}
	est, err := coord.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est.Gathered != 2 {
		t.Fatalf("gathered %d, want 2 (inconsistent worker excluded)", est.Gathered)
	}
}

// TestBadBodyOnDegradedFleetDoesNotBrick: a corrupt request while one worker
// is unreachable must come back as a client error with the fleet untouched —
// the responding workers rejected the body whole, so nobody's state moved
// and nobody may be marked inconsistent.
func TestBadBodyOnDegradedFleetDoesNotBrick(t *testing.T) {
	s := testStream(t, 41, 200)
	budgets := shard.SplitBudget(300, 3)
	urls, servers := testFleet(t, budgets, []int64{61, 62, 63})
	coord, err := cluster.New(cluster.Config{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, coord, s[:100])

	servers[1].Close()
	if _, err := coord.IngestBytes([]byte("not a stream\n")); !errors.Is(err, cluster.ErrBadStream) {
		t.Fatalf("bad body on degraded fleet: err = %v, want ErrBadStream", err)
	}
	// The survivors are still consistent and keep serving; only the dead
	// worker is unreachable.
	h := coord.Health()
	if !h.WorkersDetail[0].Consistent || !h.WorkersDetail[2].Consistent {
		t.Fatalf("bad body marked surviving workers inconsistent: %+v", h)
	}
	if err := coord.SubmitBatch(s[100:150]); err != nil {
		t.Fatalf("valid ingest after the bad body: %v", err)
	}
	est, err := coord.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est.Gathered != 2 {
		t.Fatalf("gathered %d, want the 2 survivors", est.Gathered)
	}
}

// TestEstimateRejectsPatternlessWorker: an endpoint that answers JSON
// without a pattern list is not a wsdserve worker; the read must error, not
// panic on a width-0 estimate vector.
func TestEstimateRejectsPatternlessWorker(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"estimate": 1}`)
	}))
	t.Cleanup(fake.Close)
	coord, err := cluster.New(cluster.Config{Workers: []string{fake.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Estimate(); err == nil || !strings.Contains(err.Error(), "no pattern estimates") {
		t.Fatalf("patternless worker: err = %v, want a no-pattern-estimates error", err)
	}
}

// TestHealthFlagsNonUniformFleet: readiness must not show green on a fleet
// whose workers count different pattern sets — every read would fail while
// /healthz said ok.
func TestHealthFlagsNonUniformFleet(t *testing.T) {
	urls, _ := testFleet(t, []int{200, 200}, []int64{1, 2})
	odd, err := serve.New(serve.Config{Pattern: wsd.WedgePattern, M: 200, Shards: 1,
		Options: []wsd.Option{wsd.WithSeed(3)}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(odd.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { odd.Close() })

	coord, err := cluster.New(cluster.Config{Workers: append(urls, ts.URL)})
	if err != nil {
		t.Fatal(err)
	}
	h := coord.Health()
	if h.Status != "degraded" {
		t.Fatalf("non-uniform fleet health: %+v, want degraded", h)
	}
	if h.WorkersDetail[2].Error == "" || !strings.Contains(h.WorkersDetail[2].Error, "differs") {
		t.Fatalf("odd worker not flagged: %+v", h.WorkersDetail[2])
	}
}

// TestRestoreValidation: blobs that do not describe this fleet must be
// refused before any worker state is touched.
func TestRestoreValidation(t *testing.T) {
	budgets := shard.SplitBudget(300, 3)
	urls, _ := testFleet(t, budgets, []int64{1, 2, 3})
	coord, err := cluster.New(cluster.Config{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}

	if err := coord.Restore([]byte("{")); err == nil {
		t.Fatal("garbage blob accepted")
	}

	// A single-process ensemble blob must be refused with a pointer at the
	// worker endpoint.
	ens, err := wsd.NewShardedCounter(wsd.TrianglePattern, 300, 2, wsd.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	ensBlob, err := ens.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ens.Close()
	if err := coord.Restore(ensBlob); err == nil || !strings.Contains(err.Error(), "single-process ensemble") {
		t.Fatalf("ensemble blob: err = %v, want single-process-ensemble refusal", err)
	}

	// The facade's restore dispatch must refuse a cluster blob symmetrically.
	two, _ := testFleet(t, budgets[:2], []int64{5, 6})
	coord2, err := cluster.New(cluster.Config{Workers: two})
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := coord2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wsd.RestoreShardedCounter(blob2); err == nil || !strings.Contains(err.Error(), "cluster snapshot") {
		t.Fatalf("facade restore of cluster blob: err = %v, want cluster-snapshot refusal", err)
	}
	if _, err := wsd.InspectShardedSnapshot(blob2); err == nil {
		t.Fatal("facade inspect of cluster blob must fail")
	}

	// A 2-worker blob cannot restore a 3-worker fleet.
	if err := coord.Restore(blob2); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Fatalf("wrong fleet size: err = %v", err)
	}
}

// TestNewValidation covers the constructor's misconfiguration rejections.
func TestNewValidation(t *testing.T) {
	if _, err := cluster.New(cluster.Config{}); err == nil {
		t.Fatal("empty worker list accepted")
	}
	if _, err := cluster.New(cluster.Config{Workers: []string{"a:1", "a:1"}}); err == nil {
		t.Fatal("duplicate worker accepted")
	}
	if _, err := cluster.New(cluster.Config{Workers: []string{"http://a:1/", "a:1"}}); err == nil {
		t.Fatal("duplicate worker (normalized spelling) accepted")
	}
	if got := cluster.NormalizeWorkerURL(" a:1// "); got != "http://a:1" {
		t.Fatalf("NormalizeWorkerURL trailing slashes: %q, want http://a:1", got)
	}
	if _, err := cluster.New(cluster.Config{Workers: []string{"a:1"}, Quorum: 2}); err == nil {
		t.Fatal("quorum above fleet size accepted")
	}
	c, err := cluster.New(cluster.Config{Workers: []string{"a:1", "b:2", "c:3"}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Quorum() != 2 {
		t.Fatalf("default quorum %d, want majority 2 of 3", c.Quorum())
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestFlushIsAFleetBarrier: after Flush returns, every worker reports the
// full stream applied — without the state serialization Snapshot pays — and
// a degraded fleet (dead worker) fails the barrier instead of lying.
func TestFlushIsAFleetBarrier(t *testing.T) {
	s := testStream(t, 33, 400)
	budgets := shard.SplitBudget(600, 3)
	urls, servers := testFleet(t, budgets, []int64{201, 202, 203})
	coord, err := cluster.New(cluster.Config{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, coord, s)
	if err := coord.Flush(); err != nil {
		t.Fatal(err)
	}
	est, err := coord.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est.Processed != int64(len(s)) {
		t.Fatalf("after Flush, processed %d of %d", est.Processed, len(s))
	}
	servers[1].Close()
	if err := coord.Flush(); err == nil {
		t.Fatal("Flush with a dead worker must fail")
	}
}
