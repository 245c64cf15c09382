package wsd_test

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	wsd "repro"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/stream"
)

// temporalTestEvents is a feasible deletion-bearing stream for the facade
// differential tests.
func temporalTestEvents(seed int64) stream.Stream {
	rng := rand.New(rand.NewSource(seed))
	edges := gen.PlantedPartition(8, 12, 0.6, 0.03, rng)
	return stream.LightDeletion(edges, 0.3, rng)
}

// TestTemporalDegenerateBitIdentity is the facade layer of the differential
// guarantee: a counter with a window no stream can outlive, and a counter
// with an infinite halflife, must produce BIT-IDENTICAL estimates to the
// plain whole-stream counter at every step — not merely close ones. The
// window path must not touch the estimate when nothing ever expires, and the
// decay path must be skipped entirely at lambda = 0. Checked at the single-
// counter and sharded-ensemble layers.
func TestTemporalDegenerateBitIdentity(t *testing.T) {
	s := temporalTestEvents(31)

	t.Run("single", func(t *testing.T) {
		plain, err := wsd.NewCounter(wsd.TrianglePattern, 300, wsd.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		infWin, err := wsd.NewCounter(wsd.TrianglePattern, 300, wsd.WithSeed(5), wsd.WithWindow(math.MaxInt64))
		if err != nil {
			t.Fatal(err)
		}
		infHalf, err := wsd.NewCounter(wsd.TrianglePattern, 300, wsd.WithSeed(5), wsd.WithDecay(math.Inf(1)))
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range s {
			plain.Process(ev)
			infWin.Process(ev)
			infHalf.Process(ev)
			if got, want := infWin.Estimate(), plain.Estimate(); got != want {
				t.Fatalf("step %d: infinite-window estimate %v, whole-stream %v", i, got, want)
			}
			if got, want := infHalf.Estimate(), plain.Estimate(); got != want {
				t.Fatalf("step %d: infinite-halflife estimate %v, whole-stream %v", i, got, want)
			}
		}
	})

	t.Run("sharded", func(t *testing.T) {
		run := func(opts ...wsd.Option) float64 {
			t.Helper()
			ens, err := wsd.NewShardedCounter(wsd.TrianglePattern, 300, 3, append([]wsd.Option{wsd.WithSeed(5)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if err := ens.SubmitBatch(s); err != nil {
				t.Fatal(err)
			}
			return ens.Close()
		}
		want := run()
		if got := run(wsd.WithWindow(math.MaxInt64)); got != want {
			t.Fatalf("infinite-window ensemble estimate %v, whole-stream %v", got, want)
		}
		if got := run(wsd.WithDecay(math.Inf(1))); got != want {
			t.Fatalf("infinite-halflife ensemble estimate %v, whole-stream %v", got, want)
		}
	})
}

// TestTemporalFacadeRefusals pins the facade's pointed errors: local counters
// do not serve temporal modes, and the two modes are mutually exclusive
// everywhere. Multi-pattern counters do serve them: under WithDecay the
// primary estimate is bit-identical to a single-pattern decayed counter's.
func TestTemporalFacadeRefusals(t *testing.T) {
	if _, err := wsd.NewCounter(wsd.TrianglePattern, 100, wsd.WithWindow(10), wsd.WithDecay(5)); err == nil {
		t.Fatal("WithWindow+WithDecay accepted; the modes are mutually exclusive")
	}
	if _, err := wsd.NewLocalCounter(wsd.TrianglePattern, 100, wsd.WithWindow(10)); err == nil {
		t.Fatal("local counter accepted WithWindow")
	}
	multi, err := wsd.NewMultiCounter([]wsd.Pattern{wsd.TrianglePattern, wsd.WedgePattern}, 100, wsd.WithDecay(5))
	if err != nil {
		t.Fatalf("multi-pattern counter refused WithDecay: %v", err)
	}
	single, err := wsd.NewCounter(wsd.TrianglePattern, 100, wsd.WithDecay(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range temporalTestEvents(31) {
		multi.Process(ev)
		single.Process(ev)
	}
	if got, _ := multi.EstimateOf(wsd.TrianglePattern); got != single.Estimate() {
		t.Fatalf("decayed multi-pattern primary estimate %v, single-pattern %v", got, single.Estimate())
	}
	if _, err := wsd.NewCounter(wsd.TrianglePattern, 100, wsd.WithWindow(-3)); err == nil {
		t.Fatal("negative window accepted")
	}
	if _, err := wsd.NewCounter(wsd.TrianglePattern, 100, wsd.WithDecay(-1)); err == nil {
		t.Fatal("negative halflife accepted")
	}
}

// temporalSnapshotSeed builds a real sharded snapshot in the given temporal
// mode to seed the fuzzer with structurally valid windowed/decayed input.
func temporalSnapshotSeed(tb testing.TB, opt wsd.Option) []byte {
	tb.Helper()
	ens, err := wsd.NewShardedCounter(wsd.TrianglePattern, 64, 2, wsd.WithSeed(3), opt)
	if err != nil {
		tb.Fatal(err)
	}
	s := temporalTestEvents(17)
	if err := ens.SubmitBatch(s[:len(s)/2]); err != nil {
		tb.Fatal(err)
	}
	blob, err := ens.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	ens.Close()
	return blob
}

// FuzzWindowedSnapshotDecode throws arbitrary bytes at the snapshot surface
// seeded with windowed and decayed v5 blobs: the temporal validation
// (ring ordering, live-edge uniqueness, sampled-edges-live invariant, weight
// scale sanity) must reject malformed state with an error — never panic —
// and whatever it accepts must restore into a working counter that keeps its
// temporal mode across a re-snapshot.
func FuzzWindowedSnapshotDecode(f *testing.F) {
	winBlob := temporalSnapshotSeed(f, wsd.WithWindow(40))
	decayBlob := temporalSnapshotSeed(f, wsd.WithDecay(25))
	f.Add(winBlob)
	f.Add(decayBlob)
	f.Add(bytes.Replace(winBlob, []byte(`"window":40`), []byte(`"window":-40`), -1))
	f.Add(bytes.Replace(winBlob, []byte(`"ring"`), []byte(`"Ring"`), -1))
	f.Add(bytes.Replace(decayBlob, []byte(`"halflife":25`), []byte(`"halflife":25,"window":7`), -1))
	f.Add(bytes.Replace(decayBlob, []byte(`"wscale":`), []byte(`"wscale":-`), -1))
	// A v5 single-shard envelope with a ring that breaks each invariant:
	// out-of-order ticks, a dead-marked duplicate, a loop edge.
	f.Add([]byte(`{"version":1,"shards":[{"version":5,"m":4,"pattern":1,"window":10,` +
		`"ring":[{"u":1,"v":2,"at":5},{"u":2,"v":3,"at":3}]}]}`))
	f.Add([]byte(`{"version":1,"shards":[{"version":5,"m":4,"pattern":1,"window":10,` +
		`"ring":[{"u":1,"v":2,"at":1},{"u":1,"v":2,"at":2}]}]}`))
	f.Add([]byte(`{"version":1,"shards":[{"version":5,"m":4,"pattern":1,"window":10,` +
		`"ring":[{"u":3,"v":3,"at":1}]}]}`))
	// A v4 blob must still decode as whole-stream.
	f.Add([]byte(`{"version":1,"shards":[{"version":4,"m":10,"pattern":1,"rng_state":42,"items":[]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		info, inspectErr := wsd.InspectShardedSnapshot(data)
		ens, restoreErr := wsd.RestoreShardedCounter(data)
		if (inspectErr == nil) != (restoreErr == nil) {
			t.Fatalf("inspect err = %v, restore err = %v: validation surfaces disagree", inspectErr, restoreErr)
		}
		if restoreErr != nil {
			return
		}
		// The restored ensemble must work and must keep its temporal mode:
		// a re-snapshot that silently drops the window would resume as a
		// whole-stream counter estimating a different quantity.
		if err := ens.SubmitBatch([]wsd.Event{wsd.Insert(200, 201)}); err != nil {
			t.Fatalf("restored counter rejects ingest: %v", err)
		}
		blob, err := ens.Snapshot()
		if err != nil {
			t.Fatalf("restored counter cannot snapshot: %v", err)
		}
		again, err := wsd.InspectShardedSnapshot(blob)
		if err != nil {
			t.Fatalf("re-snapshot does not decode: %v", err)
		}
		if again.Window != info.Window || again.Halflife != info.Halflife {
			t.Fatalf("temporal mode changed across restore: window %d->%d halflife %v->%v",
				info.Window, again.Window, info.Halflife, again.Halflife)
		}
		ens.Close()
	})
}

// TestWindowMultiPatternFacade: one windowed multi-pattern counter serves
// every pattern's windowed count. Over-provisioned, each estimate equals the
// windowed exact oracle at every step; a checkpoint taken mid-stream
// restores into a counter that keeps the window and resumes bit-identically;
// and a sharded multi-pattern ensemble with full budgets agrees with it.
func TestWindowMultiPatternFacade(t *testing.T) {
	const w = 60
	s := temporalTestEvents(23)
	whole, err := wsd.NewMultiCounter(apiPatterns, 4096, wsd.WithSeed(8), wsd.WithWindow(w))
	if err != nil {
		t.Fatal(err)
	}
	oracle := exact.NewWindow(w, apiPatterns...)
	cut := len(s) / 2
	var blob []byte
	for i, ev := range s {
		whole.Process(ev)
		oracle.Apply(ev)
		for _, p := range apiPatterns {
			got, ok := whole.EstimateOf(p)
			if !ok {
				t.Fatalf("%s: EstimateOf refused a counted pattern", p)
			}
			if want := float64(oracle.Count(p)); got != want {
				t.Fatalf("%s step %d: windowed estimate %v, exact %v", p, i, got, want)
			}
		}
		if i == cut-1 {
			if blob, err = whole.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}

	restored, err := wsd.RestoreCounter(blob, wsd.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	restored.ProcessBatch(s[cut:])
	if got, want := restored.Estimates(), whole.Estimates(); !slices.Equal(got, want) {
		t.Fatalf("restored windowed estimates %v, uninterrupted %v", got, want)
	}

	ens, err := wsd.NewShardedMultiCounter(apiPatterns, 4096, 2, wsd.WithSeed(8), wsd.WithWindow(w), wsd.WithFullBudgetShards())
	if err != nil {
		t.Fatal(err)
	}
	if err := ens.SubmitBatch(s); err != nil {
		t.Fatal(err)
	}
	ens.Close()
	for i, want := range whole.Estimates() {
		if got := ens.EstimateAt(i); got != want {
			t.Fatalf("sharded windowed %s estimate %v, want %v", apiPatterns[i], got, want)
		}
	}
}
