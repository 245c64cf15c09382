package sampling

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/stream"
)

// steadyAllocsPerEvent replays the first half of s to warm the counter's
// sample and scratch, then returns the heap allocations per event over the
// second half.
func steadyAllocsPerEvent(c counter, s stream.Stream) float64 {
	half := len(s) / 2
	for _, ev := range s[:half] {
		c.Process(ev)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, ev := range s[half:] {
		c.Process(ev)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(s)-half)
}

// TestBaselineAllocsPerEvent pins the baselines' steady-state allocations
// per event on a light-deletion Holme-Kim triangle stream (3,000 vertices,
// 5 links each, M = 2,000). Each baseline owns its enumerator and builds its
// instance callbacks once, so the estimator update allocates nothing, and
// the samples' adjacency (graph.AdjSet) keeps its rows in reused slabs; what
// remains is map growth and WRS's waiting-room queue. Measured: ThinkD
// 0.0006, TRIEST-FD 0.0006 to 0.0011, WRS 0.0039, GPS and GPS-A under
// 0.001. A closure built per event, or an allocation per adjacency change,
// breaks these bounds.
func TestBaselineAllocsPerEvent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := stream.LightDeletion(gen.HolmeKim(3000, 5, 0.5, rng), 0.2, rng)
	for _, tc := range []struct {
		name string
		max  float64
	}{
		{"ThinkD", 0.05},
		{"Triest", 0.05},
		{"WRS", 0.01},
		{"GPS", 0.05},
		{"GPS-A", 0.05},
	} {
		got := steadyAllocsPerEvent(makeCounter(t, tc.name, pattern.Triangle, 2000, 1), s)
		if got > tc.max {
			t.Errorf("%s allocates %.3f per event in steady state, want <= %.2f", tc.name, got, tc.max)
		}
	}
}
