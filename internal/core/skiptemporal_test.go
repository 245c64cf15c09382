package core

import (
	"testing"

	"repro/internal/pattern"
	"repro/internal/weights"
	"repro/internal/xrand"
)

// TestSkipTemporalInvariants pins the SkipTemporal contract: with identical
// seeds the estimate trajectory is bit-identical to the full-state counter
// (the temporal features feed nothing the heuristic weights read), and
// lastState.Temporal stays all-zero.
func TestSkipTemporalInvariants(t *testing.T) {
	build := func(skip bool) *Counter {
		c, err := New(Config{
			M:            64,
			Pattern:      pattern.Triangle,
			Weight:       weights.GPSDefault(),
			Rng:          xrand.New(11),
			SkipTemporal: skip,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	full, lite := build(false), build(true)
	s := testStream(t, 17, 250, 0.2)
	for i, ev := range s {
		full.Process(ev)
		lite.Process(ev)
		if full.Estimate() != lite.Estimate() {
			t.Fatalf("event %d: SkipTemporal changed the estimate: %v vs %v",
				i, lite.Estimate(), full.Estimate())
		}
		for j, v := range lite.lastState.Temporal {
			if v != 0 {
				t.Fatalf("event %d: SkipTemporal left Temporal[%d] = %v, want all-zero", i, j, v)
			}
		}
	}
	if lite.lastState.Instances == 0 && full.lastState.Instances != 0 {
		t.Fatal("SkipTemporal must keep the topological features")
	}
}
