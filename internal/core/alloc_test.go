package core

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/stream"
	"repro/internal/weights"
	"repro/internal/window"
	"repro/internal/xrand"
)

// steadyBlock builds a self-contained event block over a fixed vertex
// universe: every inserted edge is deleted again within the block (with a
// lag, so the graph carries live structure), leaving the graph empty at the
// end. Replaying the block is the steady-state ingest shape: same vertices,
// same adjacency footprint, continuous reservoir churn.
func steadyBlock(n, vertices int) []stream.Event {
	const lag = 48
	evs := make([]stream.Event, 0, 2*n)
	edges := make([]graph.Edge, 0, n)
	u, v := 0, 1
	for len(edges) < n {
		e := graph.NewEdge(graph.VertexID(u), graph.VertexID(v))
		edges = append(edges, e)
		evs = append(evs, stream.Event{Op: stream.Insert, Edge: e})
		if len(edges) > lag {
			evs = append(evs, stream.Event{Op: stream.Delete, Edge: edges[len(edges)-1-lag]})
		}
		v++
		if v >= vertices {
			u++
			v = u + 1
			if u >= vertices-1 {
				u, v = 0, 1
			}
		}
	}
	for i := len(edges) - lag; i < len(edges); i++ {
		if i >= 0 {
			evs = append(evs, stream.Event{Op: stream.Delete, Edge: edges[i]})
		}
	}
	return evs
}

// TestProcessBatchAllocs pins the core ingest path's steady-state allocation
// rate: after warm-up (scratch grown, adjacency capacity established, item
// freelist primed) a full insert+delete churn block must average well under
// one allocation per hundred events. This is the guard that keeps the
// zero-allocation work from silently regressing — a stray closure or a
// dropped buffer reuse in the hot path shows up here as a hard failure.
func TestProcessBatchAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind pattern.Kind
	}{
		{"triangle", pattern.Triangle},
		{"4-clique", pattern.FourClique},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{
				M:            256,
				Pattern:      tc.kind,
				Weight:       weights.GPSDefault(),
				Rng:          xrand.New(5),
				SkipTemporal: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			block := steadyBlock(1024, 40)
			// Warm: grow every scratch buffer and prime the freelist.
			for i := 0; i < 3; i++ {
				c.ProcessBatch(block)
			}
			avg := testing.AllocsPerRun(5, func() {
				c.ProcessBatch(block)
			})
			perEvent := avg / float64(len(block))
			t.Logf("%s: %.4f allocs/event (%.1f per block of %d)", tc.name, perEvent, avg, len(block))
			if perEvent > 0.01 {
				t.Errorf("core ingest allocates %.4f/event, budget 0.01 — the zero-alloc path regressed", perEvent)
			}
		})
	}
}

// fullStateKinds are the primaries of the temporal-feature alloc guards, one
// per CliqueSink fold (OnTriangle, OnPair, OnTriple), each with the vertex
// universe of its steady block. The 4- and 5-clique blocks cycle through a
// small universe so the lagged live graph is dense enough to complete many
// instances per insertion.
var fullStateKinds = []struct {
	kind     pattern.Kind
	vertices int
}{
	{pattern.Triangle, 40},
	{pattern.FourClique, 12},
	{pattern.FiveClique, 12},
}

// measureSteadyAllocs warms c on block (grows every scratch buffer and primes
// the freelist), fails the test if the warm-up completed no primary
// instance, and returns the steady-state allocations per event.
func measureSteadyAllocs(t *testing.T, c *Counter, block []stream.Event) float64 {
	t.Helper()
	completed := false
	for i := 0; i < 3; i++ {
		for _, ev := range block {
			c.Process(ev)
			completed = completed || c.lastState.Instances > 0
		}
	}
	if !completed {
		t.Fatal("the steady block completes no primary instance; the guard would measure no state extraction")
	}
	avg := testing.AllocsPerRun(5, func() {
		c.ProcessBatch(block)
	})
	return avg / float64(len(block))
}

// TestProcessBatchAllocsFullState pins the non-SkipTemporal path too: the
// temporal feature extraction must stay allocation-free (reused scratch, the
// sink's fixed merges) for every clique primary.
func TestProcessBatchAllocsFullState(t *testing.T) {
	for _, tc := range fullStateKinds {
		t.Run(tc.kind.String(), func(t *testing.T) {
			c, err := New(Config{
				M:       256,
				Pattern: tc.kind,
				Weight:  weights.GPSDefault(),
				Rng:     xrand.New(5),
			})
			if err != nil {
				t.Fatal(err)
			}
			perEvent := measureSteadyAllocs(t, c, steadyBlock(1024, tc.vertices))
			t.Logf("%s: %.4f allocs/event", tc.kind, perEvent)
			if perEvent > 0.01 {
				t.Errorf("full-state ingest allocates %.4f/event, budget 0.01", perEvent)
			}
		})
	}
}

// TestProcessBatchAllocsPolicyWeight pins the ingest path under a learned
// WSD-L policy: the weight function is the trained linear model over the full
// per-event MDP state (temporal features on — the policy consumes them), so
// this is exactly what a policy hot-swap puts on the hot path. The policy's
// scratch vector is reused across events; the budget leaves room only for the
// same stray block boundaries the heuristic paths tolerate.
func TestProcessBatchAllocsPolicyWeight(t *testing.T) {
	for _, tc := range fullStateKinds {
		t.Run(tc.kind.String(), func(t *testing.T) {
			// The linear model is built inline (rl.Policy.Func's exact
			// shape — a reused scratch vector and a dot product) because
			// internal/rl imports this package and cannot be imported back
			// from its tests.
			dim := weights.VectorDim(tc.kind.Size())
			w, b := make([]float64, dim), 0.3
			for i := range w {
				w[i] = 0.05 * float64(i+1)
			}
			scratch := make([]float64, 0, dim)
			weight := func(s weights.State) float64 {
				scratch = s.Vector(scratch)
				a := b
				for i, wi := range w {
					a += wi * scratch[i]
				}
				if a < 0 {
					a = 0
				}
				return a + 1
			}
			c, err := New(Config{
				M:       256,
				Pattern: tc.kind,
				Weight:  weight,
				Rng:     xrand.New(5),
				Policy:  &PolicyParams{ID: "alloc-test", W: w, B: b},
			})
			if err != nil {
				t.Fatal(err)
			}
			perEvent := measureSteadyAllocs(t, c, steadyBlock(1024, tc.vertices))
			t.Logf("%s policy weight: %.4f allocs/event", tc.kind, perEvent)
			if perEvent > 0.02 {
				t.Errorf("policy-weighted ingest allocates %.4f/event, budget 0.02 — the learned weight function regressed onto the allocator", perEvent)
			}
		})
	}
}

// TestMultiProcessBatchAllocs extends the steady-state allocation guard to
// the multi-pattern counter: three estimators over one shared sample must
// stay on the same zero-allocation budget as one — the shared enumeration
// scratch and per-pattern prods buffers are all reused across events.
func TestMultiProcessBatchAllocs(t *testing.T) {
	c, err := New(Config{
		M:            256,
		Pattern:      pattern.FourClique,
		Secondary:    []pattern.Kind{pattern.Triangle, pattern.Wedge},
		Weight:       weights.GPSDefault(),
		Rng:          xrand.New(5),
		SkipTemporal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	block := steadyBlock(1024, 40)
	for i := 0; i < 3; i++ {
		c.ProcessBatch(block)
	}
	avg := testing.AllocsPerRun(5, func() {
		c.ProcessBatch(block)
	})
	perEvent := avg / float64(len(block))
	t.Logf("multi3: %.4f allocs/event (%.1f per block of %d)", perEvent, avg, len(block))
	if perEvent > 0.01 {
		t.Errorf("multi-pattern ingest allocates %.4f/event, budget 0.01 — the zero-alloc path regressed", perEvent)
	}
}

// TestProcessBatchAllocsWindowed pins the sliding-window ingest path: every
// insertion also goes through the window ledger (membership probe, expiry of
// the aged prefix through the deletion path, push), and every deletion
// through its kill. Once the ledger's table and entry slice have grown to
// the window, that bookkeeping must allocate nothing. Window 256 expires
// edges while their deletions are still pending (genuine deletions hit live
// ledger entries); window 32 expires them first (the deletions find nothing
// live and are dropped).
func TestProcessBatchAllocsWindowed(t *testing.T) {
	for _, w := range []int64{32, 256} {
		t.Run(fmt.Sprintf("window=%d", w), func(t *testing.T) {
			c, err := New(Config{
				M:            256,
				Pattern:      pattern.Triangle,
				Weight:       weights.GPSDefault(),
				Rng:          xrand.New(5),
				SkipTemporal: true,
				Temporal:     window.Spec{Window: w},
			})
			if err != nil {
				t.Fatal(err)
			}
			block := steadyBlock(1024, 40)
			for i := 0; i < 3; i++ {
				c.ProcessBatch(block)
			}
			avg := testing.AllocsPerRun(5, func() {
				c.ProcessBatch(block)
			})
			perEvent := avg / float64(len(block))
			t.Logf("window %d: %.4f allocs/event (%.1f per block of %d)", w, perEvent, avg, len(block))
			if perEvent > 0.02 {
				t.Errorf("windowed ingest allocates %.4f/event, budget 0.02", perEvent)
			}
		})
	}
}
