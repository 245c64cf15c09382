package pattern

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestCompletionsAllocs pins the convenience entry points at zero
// allocations per call on a graph.AdjSet, for every kind. These functions
// drive the exact oracles in internal/exact. Their pooled enumerators carry
// prebuilt callbacks; a per-call callback slice or counting closure on the
// way to MultiCompleter.ForEach costs one allocation each and shows up here.
func TestCompletionsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector, so the pooled entry points rebuild enumerators by design")
	}
	g := randomGraph(25, 140, rand.New(rand.NewSource(3)))
	for _, k := range Kinds() {
		k.CountCompletions(g, 1, 2) // warm the pool and the enumeration scratch
		count := testing.AllocsPerRun(100, func() {
			k.CountCompletions(g, 3, 4)
		})
		if count != 0 {
			t.Errorf("%s: CountCompletions allocates %v per call, want 0", k, count)
		}
		n := 0
		visit := func([]graph.Edge) bool { n++; return true }
		each := testing.AllocsPerRun(100, func() {
			k.ForEachCompletion(g, 3, 4, visit)
		})
		if each != 0 {
			t.Errorf("%s: ForEachCompletion allocates %v per call, want 0", k, each)
		}
	}
}
