package wsd_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	wsd "repro"

	"repro/internal/gen"
	"repro/internal/stream"
)

func checkpointStream(t *testing.T, seed int64, n int) wsd.Stream {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := gen.HolmeKim(n, 4, 0.6, rng)
	return stream.LightDeletion(edges, 0.25, rng)
}

// TestFacadeCheckpointBitIdentical: the acceptance criterion at the facade —
// a counter snapshotted mid-stream and restored produces byte-identical
// estimates to an uninterrupted run over the same stream.
func TestFacadeCheckpointBitIdentical(t *testing.T) {
	s := checkpointStream(t, 11, 500)
	cut := len(s) / 2

	build := func() wsd.Counter {
		c, err := wsd.NewTriangleCounter(200, wsd.WithSeed(77))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	uninterrupted := build()
	interrupted := build()
	for _, ev := range s[:cut] {
		uninterrupted.Process(ev)
		interrupted.Process(ev)
	}
	blob, err := wsd.Checkpoint(interrupted)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := wsd.RestoreCounter(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range s[cut:] {
		uninterrupted.Process(ev)
		restored.Process(ev)
	}
	if restored.Estimate() != uninterrupted.Estimate() {
		t.Fatalf("restored %v, uninterrupted %v", restored.Estimate(), uninterrupted.Estimate())
	}
}

func TestFacadeLocalCheckpointBitIdentical(t *testing.T) {
	s := checkpointStream(t, 13, 400)
	cut := len(s) * 2 / 3

	build := func() *wsd.LocalCounter {
		c, err := wsd.NewLocalCounter(wsd.TrianglePattern, 150, wsd.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	uninterrupted := build()
	interrupted := build()
	for _, ev := range s[:cut] {
		uninterrupted.Process(ev)
		interrupted.Process(ev)
	}
	blob, err := interrupted.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := wsd.RestoreLocalCounter(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range s[cut:] {
		uninterrupted.Process(ev)
		restored.Process(ev)
	}
	if restored.Estimate() != uninterrupted.Estimate() {
		t.Fatalf("restored %v, uninterrupted %v", restored.Estimate(), uninterrupted.Estimate())
	}
	for _, vc := range uninterrupted.TopK(10) {
		if got := restored.Local(vc.Vertex); got != vc.Count {
			t.Fatalf("vertex %d: restored %v, uninterrupted %v", vc.Vertex, got, vc.Count)
		}
	}
}

func TestFacadeShardedCheckpointBitIdentical(t *testing.T) {
	s := checkpointStream(t, 17, 600)
	cut := len(s) / 2

	build := func() *wsd.ShardedCounter {
		sc, err := wsd.NewShardedCounter(wsd.TrianglePattern, 240, 3, wsd.WithSeed(41))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	feed := func(sc *wsd.ShardedCounter, evs wsd.Stream) {
		t.Helper()
		const batch = 50
		for lo := 0; lo < len(evs); lo += batch {
			hi := lo + batch
			if hi > len(evs) {
				hi = len(evs)
			}
			if err := sc.SubmitBatch(evs[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
	}
	uninterrupted := build()
	interrupted := build()
	feed(uninterrupted, s[:cut])
	feed(interrupted, s[:cut])

	blob, err := interrupted.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	interrupted.Close()
	restored, err := wsd.RestoreShardedCounter(blob, wsd.WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	feed(uninterrupted, s[cut:])
	feed(restored, s[cut:])
	want := uninterrupted.Close()
	if got := restored.Close(); got != want {
		t.Fatalf("restored ensemble %v, uninterrupted %v", got, want)
	}
}

// TestFacadeProcessorCheckpointBitIdentical: a Processor's Snapshot is an
// ensemble blob of one shard. RestoreShardedCounter revives it at the
// snapshot's stream position, and the revived worker finishes bit-identically
// to an uninterrupted Processor fed the same per-event stream.
func TestFacadeProcessorCheckpointBitIdentical(t *testing.T) {
	s := checkpointStream(t, 19, 500)
	cut := len(s) / 2

	build := func() *wsd.Processor {
		c, err := wsd.NewTriangleCounter(200, wsd.WithSeed(31))
		if err != nil {
			t.Fatal(err)
		}
		return wsd.NewProcessor(c, 32)
	}
	feed := func(p *wsd.Processor, evs wsd.Stream) {
		t.Helper()
		for _, ev := range evs {
			if err := p.Submit(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	uninterrupted := build()
	interrupted := build()
	feed(uninterrupted, s[:cut])
	feed(interrupted, s[:cut])

	blob, err := interrupted.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	interrupted.Close()
	restored, err := wsd.RestoreShardedCounter(blob)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Shards() != 1 || restored.Processed() != int64(cut) {
		t.Fatalf("restored %d shards at position %d, want 1 at %d", restored.Shards(), restored.Processed(), cut)
	}
	feed(uninterrupted, s[cut:])
	feed(restored, s[cut:])
	want := uninterrupted.Close()
	if got := restored.Close(); got != want {
		t.Fatalf("restored processor %v, uninterrupted %v", got, want)
	}
	if restored.Processed() != int64(len(s)) {
		t.Fatalf("restored position %d, want %d", restored.Processed(), len(s))
	}
}

// TestFacadeProcessorLocalCheckpointBitIdentical: a Processor wrapping a
// local counter snapshots to a one-shard ensemble blob. RestoreLocalCounter
// unwraps it, and the revived counter, driven by a new Processor, finishes
// bit-identically to an uninterrupted local counter, per-vertex counts
// included. RestoreShardedCounter refuses the blob with a pointer to
// RestoreLocalCounter instead of a decode error.
func TestFacadeProcessorLocalCheckpointBitIdentical(t *testing.T) {
	s := checkpointStream(t, 23, 400)
	cut := len(s) * 2 / 3

	build := func() *wsd.LocalCounter {
		c, err := wsd.NewLocalCounter(wsd.TrianglePattern, 150, wsd.WithSeed(9))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	feed := func(p *wsd.Processor, evs wsd.Stream) {
		t.Helper()
		for _, ev := range evs {
			if err := p.Submit(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	uninterrupted := build()
	for _, ev := range s {
		uninterrupted.Process(ev)
	}
	p := wsd.NewProcessor(build(), 8)
	feed(p, s[:cut])
	blob, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	p.Close()

	if _, err := wsd.RestoreShardedCounter(blob); err == nil || !strings.Contains(err.Error(), "RestoreLocalCounter") {
		t.Fatalf("sharded restore of a local Processor blob: %v, want a pointer to RestoreLocalCounter", err)
	}
	restored, err := wsd.RestoreLocalCounter(blob)
	if err != nil {
		t.Fatal(err)
	}
	resumed := wsd.NewProcessor(restored, 8)
	feed(resumed, s[cut:])
	if got, want := resumed.Close(), uninterrupted.Estimate(); got != want {
		t.Fatalf("restored %v, uninterrupted %v", got, want)
	}
	want := uninterrupted.TopK(uninterrupted.Vertices())
	if got := restored.TopK(restored.Vertices()); !slices.Equal(got, want) {
		t.Fatalf("per-vertex counts differ: restored %d vertices, uninterrupted %d", len(got), len(want))
	}
}

// TestFacadeProcessorBlobPlainRestore: a Processor's blob also restores
// through RestoreCounter, whether it wraps a single- or a multi-pattern
// counter, continuing bit-identically.
func TestFacadeProcessorBlobPlainRestore(t *testing.T) {
	s := checkpointStream(t, 29, 400)
	cut := len(s) / 2
	snapshot := func(c wsd.Counter) []byte {
		t.Helper()
		p := wsd.NewProcessor(c, 8)
		defer p.Close()
		for _, ev := range s[:cut] {
			if err := p.Submit(ev); err != nil {
				t.Fatal(err)
			}
		}
		blob, err := p.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	t.Run("single", func(t *testing.T) {
		build := func() wsd.Counter {
			c, err := wsd.NewTriangleCounter(150, wsd.WithSeed(3))
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		uninterrupted := build()
		for _, ev := range s {
			uninterrupted.Process(ev)
		}
		restored, err := wsd.RestoreCounter(snapshot(build()))
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range s[cut:] {
			restored.Process(ev)
		}
		if got, want := restored.Estimate(), uninterrupted.Estimate(); got != want {
			t.Fatalf("restored %v, uninterrupted %v", got, want)
		}
	})

	t.Run("multi", func(t *testing.T) {
		patterns := []wsd.Pattern{wsd.TrianglePattern, wsd.WedgePattern}
		build := func() *wsd.MultiCounter {
			c, err := wsd.NewMultiCounter(patterns, 150, wsd.WithSeed(4))
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		uninterrupted := build()
		for _, ev := range s {
			uninterrupted.Process(ev)
		}
		restored, err := wsd.RestoreCounter(snapshot(build()))
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range s[cut:] {
			restored.Process(ev)
		}
		if got, want := restored.Estimates(), uninterrupted.Estimates(); !slices.Equal(got, want) {
			t.Fatalf("restored %v, uninterrupted %v", got, want)
		}
	})
}

func TestCheckpointUnsupportedCounter(t *testing.T) {
	if _, err := wsd.Checkpoint(wsd.NewExactCounter(wsd.TrianglePattern)); err == nil {
		t.Fatal("exact counter checkpoint should fail")
	}
	// The ingestion layers checkpoint through Snapshot, not Checkpoint.
	p := wsd.NewProcessor(wsd.NewExactCounter(wsd.TrianglePattern), 1)
	defer p.Close()
	if _, err := wsd.Checkpoint(p); err == nil {
		t.Fatal("Checkpoint of a Processor should fail")
	}
	if _, err := wsd.RestoreCounter([]byte(`garbage`)); err == nil {
		t.Fatal("garbage restore should fail")
	}
	if _, err := wsd.RestoreShardedCounter([]byte(`garbage`)); err == nil {
		t.Fatal("garbage sharded restore should fail")
	}
	if _, err := wsd.RestoreLocalCounter([]byte(`garbage`)); err == nil {
		t.Fatal("garbage local restore should fail")
	}
}
