package core

import (
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/stream"
	"repro/internal/weights"
	"repro/internal/window"
	"repro/internal/xrand"
)

// TestTwinRunsBitIdentical guards the precondition under the checkpoint
// guarantee: two identically seeded counters over the same stream produce
// exactly equal estimates. This is what per-event sorted accumulation
// (sumProds) buys — without it, Go's randomized map iteration order during
// completion enumeration makes float addition order differ between runs,
// and estimates wobble in their last ULP.
func TestTwinRunsBitIdentical(t *testing.T) {
	// A denser stream than the resume test so that events regularly
	// complete several instances at once (the wobble needs >= 2 non-unit
	// contributions in one event).
	rng := rand.New(rand.NewSource(12))
	edges := gen.BarabasiAlbert(400, 5, rng)
	s := stream.LightDeletion(edges, 0.2, rng)
	build := func() *Counter {
		c, err := New(Config{M: 90, Pattern: pattern.Triangle,
			Weight: weights.GPSDefault(), Rng: xrand.New(100)})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := build(), build()
	for i, ev := range s {
		a.Process(ev)
		b.Process(ev)
		if a.Estimate() != b.Estimate() {
			t.Fatalf("twin estimates diverge after event %d: %v != %v", i, a.Estimate(), b.Estimate())
		}
	}
}

// TestSnapshotBitIdenticalResume is the tentpole property: a counter driven
// by a checkpointable RNG, snapshotted at an arbitrary point and restored,
// must produce exactly the estimates, thresholds, and sample the
// uninterrupted counter produces — no reseeding, no statistical tolerance.
func TestSnapshotBitIdenticalResume(t *testing.T) {
	s := testStream(t, 47, 400, 0.3)
	for _, cut := range []int{0, 1, len(s) / 3, len(s) / 2, len(s) - 1} {
		build := func() *Counter {
			c, err := New(Config{M: 70, Pattern: pattern.Triangle,
				Weight: weights.GPSDefault(), Rng: xrand.New(11)})
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
		snap, err := DecodeSnapshot(blob)
		if err != nil {
			t.Fatal(err)
		}
		if snap.RngState == nil {
			t.Fatal("xrand-driven counter snapshot lacks RNG state")
		}
		// No Rng in the restore config: it must come from the snapshot.
		restored, err := Restore(snap, Config{Weight: weights.GPSDefault()})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range s[cut:] {
			uninterrupted.Process(ev)
			restored.Process(ev)
		}
		if restored.Estimate() != uninterrupted.Estimate() {
			t.Fatalf("cut %d: estimates diverge: %v != %v",
				cut, restored.Estimate(), uninterrupted.Estimate())
		}
		if restored.SampleSize() != uninterrupted.SampleSize() {
			t.Fatalf("cut %d: sample sizes diverge: %d != %d",
				cut, restored.SampleSize(), uninterrupted.SampleSize())
		}
		tp1, tq1 := uninterrupted.tauP, uninterrupted.tauQ
		tp2, tq2 := restored.tauP, restored.tauQ
		if tp1 != tp2 || tq1 != tq2 {
			t.Fatalf("cut %d: thresholds diverge: (%v,%v) != (%v,%v)", cut, tp2, tq2, tp1, tq1)
		}
		for _, it := range uninterrupted.Reservoir().Items() {
			got, ok := restored.Reservoir().Get(it.Edge)
			if !ok || got.Rank != it.Rank || got.Weight != it.Weight || got.Arrival != it.Arrival {
				t.Fatalf("cut %d: reservoir item %v diverges", cut, it.Edge)
			}
		}
	}
}

// TestSnapshotRoundTrip: snapshot mid-stream, restore, and verify the
// restored counter produces identical estimates and thresholds when both
// process the remaining events with identical randomness.
func TestSnapshotRoundTrip(t *testing.T) {
	s := testStream(t, 31, 300, 0.25)
	half := len(s) / 2

	build := func(seed int64) *Counter {
		c, err := New(Config{M: 80, Pattern: pattern.Triangle, Weight: weights.GPSDefault(),
			Rng: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	orig := build(1)
	for _, ev := range s[:half] {
		orig.Process(ev)
	}

	data, err := orig.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(*&snap, Config{Weight: weights.GPSDefault(),
		Rng: rand.New(rand.NewSource(99))})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Estimate() != orig.Estimate() || restored.SampleSize() != orig.SampleSize() {
		t.Fatalf("restored state differs: est %v vs %v, size %d vs %d",
			restored.Estimate(), orig.Estimate(), restored.SampleSize(), orig.SampleSize())
	}
	tp1, tq1 := orig.tauP, orig.tauQ
	tp2, tq2 := restored.tauP, restored.tauQ
	if tp1 != tp2 || tq1 != tq2 {
		t.Fatalf("thresholds differ: (%v,%v) vs (%v,%v)", tp1, tq1, tp2, tq2)
	}

	// Continue both with the same rng seed: identical trajectories. The
	// original is continued in place (a Counter must not be shallow-copied:
	// it holds internal callbacks bound to its own address).
	origCont := orig
	origCont.cfg.Rng = rand.New(rand.NewSource(7))
	restored.cfg.Rng = rand.New(rand.NewSource(7))
	for _, ev := range s[half:] {
		origCont.Process(ev)
		restored.Process(ev)
	}
	if origCont.Estimate() != restored.Estimate() {
		t.Fatalf("post-restore trajectories diverge: %v vs %v",
			origCont.Estimate(), restored.Estimate())
	}
}

func TestRestoreValidation(t *testing.T) {
	c, err := New(Config{M: 50, Pattern: pattern.Wedge, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	edges := gen.BarabasiAlbert(100, 2, rng)
	for _, e := range edges[:40] {
		c.Process(stream.Event{Op: stream.Insert, Edge: e})
	}
	snap := c.Snapshot()

	// Mismatched M.
	if _, err := Restore(snap, Config{M: 10, Rng: rng}); err == nil {
		t.Error("mismatched M should be rejected")
	}
	// Missing rng.
	if _, err := Restore(snap, Config{}); err == nil {
		t.Error("missing rng should be rejected")
	}
	// Corrupt snapshot: duplicate item.
	snap.Items = append(snap.Items, snap.Items[0])
	if _, err := Restore(snap, Config{Rng: rng}); err == nil {
		t.Error("duplicate item should be rejected")
	}
	// Version check.
	if _, err := DecodeSnapshot([]byte(`{"version":99}`)); err == nil {
		t.Error("unknown version should be rejected")
	}
	if _, err := DecodeSnapshot([]byte(`garbage`)); err == nil {
		t.Error("garbage should be rejected")
	}
}

// TestLegacySnapshotsResumeBitIdentical restores snapshot blobs written by
// the separate single- and multi-pattern counters that preceded the unified
// Counter (testdata/legacy-*.json: single-pattern whole-stream, single-pattern
// windowed v5, and the version-3 patterns/estimates shape with three
// patterns and with one), each taken halfway through the same stream. Every
// one must restore, finish the stream, and land bit-identically on both the
// uninterrupted run of today's counter and the final estimates the old
// counters recorded (testdata/legacy-finals.json).
func TestLegacySnapshotsResumeBitIdentical(t *testing.T) {
	s := temporalTestStream(41, 30, 1500)
	cut := len(s) / 2
	raw, err := os.ReadFile("testdata/legacy-finals.json")
	if err != nil {
		t.Fatal(err)
	}
	var finals map[string][]float64
	if err := json.Unmarshal(raw, &finals); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		kinds  []pattern.Kind
		seed   int64
		window int64
		wantV3 bool
	}{
		{name: "single", kinds: []pattern.Kind{pattern.Triangle}, seed: 11},
		{name: "single-window", kinds: []pattern.Kind{pattern.Triangle}, seed: 12, window: 200},
		{name: "multi3", kinds: []pattern.Kind{pattern.Triangle, pattern.Wedge, pattern.FourClique}, seed: 13, wantV3: true},
		{name: "multi1", kinds: []pattern.Kind{pattern.FourClique}, seed: 14, wantV3: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blob, err := os.ReadFile("testdata/legacy-" + tc.name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			snap, err := DecodeSnapshot(blob)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Multi() != tc.wantV3 {
				t.Fatalf("blob shape: multi=%v, want %v", snap.Multi(), tc.wantV3)
			}
			restored, err := Restore(snap, Config{Weight: weights.GPSDefault(), SkipTemporal: true})
			if err != nil {
				t.Fatal(err)
			}
			restored.ProcessBatch(s[cut:])

			whole, err := New(Config{
				M: 96, Pattern: tc.kinds[0], Secondary: tc.kinds[1:], Weight: weights.GPSDefault(),
				Rng: xrand.New(tc.seed), SkipTemporal: true, Temporal: window.Spec{Window: tc.window},
			})
			if err != nil {
				t.Fatal(err)
			}
			whole.ProcessBatch(s)

			got := restored.Estimates()
			if !slices.Equal(got, whole.Estimates()) || !slices.Equal(got, finals[tc.name]) {
				t.Fatalf("restored estimates %v, uninterrupted %v, recorded %v", got, whole.Estimates(), finals[tc.name])
			}
			tp, tq := restored.tauP, restored.tauQ
			wtp, wtq := whole.tauP, whole.tauQ
			if tp != wtp || tq != wtq || restored.SampleSize() != whole.SampleSize() {
				t.Fatalf("thresholds/sample (%v,%v,%d), uninterrupted (%v,%v,%d)",
					tp, tq, restored.SampleSize(), wtp, wtq, whole.SampleSize())
			}
		})
	}
}
