package wsd_test

import (
	"reflect"
	"testing"

	wsd "repro"
)

var apiPatterns = []wsd.Pattern{wsd.TrianglePattern, wsd.WedgePattern, wsd.FourCliquePattern}

// TestMultiCounterAPI: per-pattern estimates through the facade surface, and
// a clean refusal for a pattern the counter does not serve.
func TestMultiCounterAPI(t *testing.T) {
	s := checkpointStream(t, 5, 400)
	mc, err := wsd.NewMultiCounter(apiPatterns, 300, wsd.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	mc.ProcessBatch(s)

	if got := mc.Patterns(); !reflect.DeepEqual(got, apiPatterns) {
		t.Fatalf("Patterns() = %v, want %v", got, apiPatterns)
	}
	ests := mc.Estimates()
	for i, p := range apiPatterns {
		est, ok := mc.EstimateOf(p)
		if !ok {
			t.Fatalf("%s: EstimateOf refused a counted pattern", p)
		}
		if est != ests[i] {
			t.Fatalf("%s: Estimate %v, Estimates[%d] %v", p, est, i, ests[i])
		}
		// Each pattern must match a single-pattern counter over the same
		// sample trajectory only for the primary; for the others just assert
		// the estimate is being maintained at all (nonzero on this stream).
		if est == 0 {
			t.Fatalf("%s: estimate is zero after %d events", p, len(s))
		}
	}
	if _, ok := mc.EstimateOf(wsd.Pattern(4)); ok { // 5-clique: not served
		t.Fatal("EstimateOf accepted an unserved pattern")
	}

	// The primary pattern must bit-match a plain counter with the same seed
	// and budget: the multi layer shares the exact sampling trajectory.
	single, err := wsd.NewTriangleCounter(300, wsd.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range s {
		single.Process(ev)
	}
	if primary, _ := mc.EstimateOf(wsd.TrianglePattern); primary != single.Estimate() {
		t.Fatalf("primary estimate %v, single counter %v", primary, single.Estimate())
	}
}

// TestMultiCounterCheckpointBitIdentical: a multi-pattern counter's
// Checkpoint restores through RestoreCounter, the one counter restore, and
// resumes bit-identically on every pattern.
func TestMultiCounterCheckpointBitIdentical(t *testing.T) {
	s := checkpointStream(t, 9, 500)
	cut := len(s) / 2

	whole, err := wsd.NewMultiCounter(apiPatterns, 200, wsd.WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	whole.ProcessBatch(s)

	half, err := wsd.NewMultiCounter(apiPatterns, 200, wsd.WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	half.ProcessBatch(s[:cut])
	blob, err := half.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := wsd.RestoreCounter(blob, wsd.WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	restored.ProcessBatch(s[cut:])
	if !reflect.DeepEqual(restored.Estimates(), whole.Estimates()) {
		t.Fatalf("restored estimates %v, uninterrupted %v", restored.Estimates(), whole.Estimates())
	}
	if got := restored.Patterns(); !reflect.DeepEqual(got, apiPatterns) {
		t.Fatalf("restored patterns %v, want %v", got, apiPatterns)
	}
	for _, p := range apiPatterns {
		got, ok := restored.EstimateOf(p)
		want, _ := whole.EstimateOf(p)
		if !ok || got != want {
			t.Fatalf("%s: restored %v (ok=%v), uninterrupted %v", p, got, ok, want)
		}
	}

	// The generic Checkpoint helper also accepts the MultiCounter.
	if _, err := wsd.Checkpoint(restored); err != nil {
		t.Fatalf("generic Checkpoint: %v", err)
	}
}

// TestShardedMultiCounter: a multi-pattern ensemble serves per-pattern
// combined estimates, snapshots with pattern metadata, and restores through
// the generic sharded restore path bit-identically.
func TestShardedMultiCounter(t *testing.T) {
	s := checkpointStream(t, 21, 600)
	cut := len(s) / 2
	build := func() *wsd.ShardedCounter {
		e, err := wsd.NewShardedMultiCounter(apiPatterns, 300, 3, wsd.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	whole := build()
	if err := whole.SubmitBatch(s); err != nil {
		t.Fatal(err)
	}
	whole.Close()

	half := build()
	if err := half.SubmitBatch(s[:cut]); err != nil {
		t.Fatal(err)
	}
	blob, err := half.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	half.Close()

	info, err := wsd.InspectShardedSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(info.Patterns, apiPatterns) {
		t.Fatalf("snapshot info %+v", info)
	}
	if info.Shards != 3 || info.TotalM != 300 {
		t.Fatalf("snapshot info %+v", info)
	}

	restored, err := wsd.RestoreShardedCounter(blob, wsd.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.SubmitBatch(s[cut:]); err != nil {
		t.Fatal(err)
	}
	restored.Close()

	if restored.NumEstimates() != len(apiPatterns) {
		t.Fatalf("NumEstimates = %d, want %d", restored.NumEstimates(), len(apiPatterns))
	}
	if got, want := restored.EstimateVector(), whole.EstimateVector(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored vector %v, uninterrupted %v", got, want)
	}
}

// TestProcessorPublishesEveryPattern: a Processor over a MultiCounter
// publishes the whole estimate vector, bit-equal after Flush to an
// identically seeded counter fed directly.
func TestProcessorPublishesEveryPattern(t *testing.T) {
	s := checkpointStream(t, 13, 500)
	build := func() *wsd.MultiCounter {
		mc, err := wsd.NewMultiCounter(apiPatterns, 250, wsd.WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		return mc
	}
	direct := build()
	direct.ProcessBatch(s)

	p := wsd.NewProcessor(build(), 4)
	defer p.Close()
	for lo := 0; lo < len(s); lo += 64 {
		if err := p.SubmitBatch(s[lo:min(lo+64, len(s))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if p.NumEstimates() != len(apiPatterns) {
		t.Fatalf("NumEstimates = %d, want %d", p.NumEstimates(), len(apiPatterns))
	}
	if got, want := p.EstimateVector(), direct.Estimates(); !reflect.DeepEqual(got, want) {
		t.Fatalf("processor vector %v, direct %v", got, want)
	}
}

// TestInspectSinglePatternSnapshot: a single-pattern ensemble blob lists its
// one pattern, so deployments compare pattern sets with one slices.Equal.
func TestInspectSinglePatternSnapshot(t *testing.T) {
	e, err := wsd.NewShardedCounter(wsd.TrianglePattern, 60, 2, wsd.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.SubmitBatch(checkpointStream(t, 3, 100)); err != nil {
		t.Fatal(err)
	}
	blob, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	info, err := wsd.InspectShardedSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if want := []wsd.Pattern{wsd.TrianglePattern}; !reflect.DeepEqual(info.Patterns, want) {
		t.Fatalf("Patterns = %v, want %v", info.Patterns, want)
	}
}
