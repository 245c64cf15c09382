package local

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/stream"
)

func config(m int, k pattern.Kind, seed int64) core.Config {
	return core.Config{M: m, Pattern: k, Rng: rand.New(rand.NewSource(seed))}
}

// exactLocalTriangles computes per-vertex triangle participation on the final
// graph from scratch.
func exactLocalTriangles(g *graph.AdjSet) map[graph.VertexID]float64 {
	out := make(map[graph.VertexID]float64)
	for _, e := range g.Edges() {
		g.ForEachCommonItem(e.U, e.V, func(w graph.VertexID, _, _ any) bool {
			// Each triangle visited once per edge => 3 visits; each visit
			// credits all three vertices 1/3.
			out[e.U] += 1.0 / 3
			out[e.V] += 1.0 / 3
			out[w] += 1.0 / 3
			return true
		})
	}
	return out
}

// TestExactWithFullBudget: with every edge sampled, local estimates equal the
// exact per-vertex counts.
func TestExactWithFullBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := gen.HolmeKim(200, 4, 0.8, rng)
	s := stream.LightDeletion(edges, 0.2, rng)
	c, err := New(config(len(s)+1, pattern.Triangle, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range s {
		c.Process(ev)
	}
	want := exactLocalTriangles(s.FinalGraph())
	for v, exactCount := range want {
		if got := c.Local(v); math.Abs(got-exactCount) > 1e-6 {
			t.Fatalf("vertex %d: local = %v, exact %v", v, got, exactCount)
		}
	}
	// Vertices with zero participation must not linger.
	for v := range want {
		delete(want, v)
	}
	if c.Vertices() == 0 {
		t.Fatal("expected nonzero local map")
	}
}

// TestGlobalConsistency: the sum of local estimates equals pattern-size times
// the global estimate (each instance credits each of its vertices once; a
// triangle has 3 vertices, a wedge 3, a 4-clique 4).
func TestGlobalConsistency(t *testing.T) {
	vertexCount := map[pattern.Kind]float64{
		pattern.Wedge:      3,
		pattern.Triangle:   3,
		pattern.FourCycle:  4,
		pattern.FourClique: 4,
		pattern.FiveClique: 5,
	}
	rng := rand.New(rand.NewSource(5))
	edges := gen.HolmeKim(300, 4, 0.8, rng)
	s := stream.InsertOnly(edges)
	for _, k := range pattern.Kinds() {
		c, err := New(config(150, k, 2))
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range s {
			c.Process(ev)
		}
		var sum float64
		for _, vc := range c.TopK(c.Vertices()) {
			sum += vc.Count
		}
		want := vertexCount[k] * c.Estimate()
		if math.Abs(sum-want) > 1e-6*math.Max(1, want) {
			t.Errorf("%v: sum of locals %v, want %v (= %v * global)", k, sum, want, vertexCount[k])
		}
	}
}

// TestLocalUnbiasedness: averaged over samplings, local estimates approach
// the exact per-vertex counts for the heaviest vertices.
func TestLocalUnbiasedness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial statistical test")
	}
	rng := rand.New(rand.NewSource(7))
	edges := gen.HolmeKim(250, 4, 0.8, rng)
	s := stream.InsertOnly(edges)
	want := exactLocalTriangles(s.FinalGraph())
	// Pick the heaviest vertex as the test subject.
	var heavy graph.VertexID
	best := -1.0
	for v, n := range want {
		if n > best {
			best, heavy = n, v
		}
	}
	const trials = 300
	var sum float64
	for trial := 0; trial < trials; trial++ {
		c, err := New(config(180, pattern.Triangle, int64(trial)*13+1))
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range s {
			c.Process(ev)
		}
		sum += c.Local(heavy)
	}
	mean := sum / trials
	if rel := math.Abs(mean-best) / best; rel > 0.2 {
		t.Errorf("heavy vertex %d: mean local %v vs exact %v (bias %.3f)", heavy, mean, best, rel)
	}
}

func TestTopKOrderingAndTies(t *testing.T) {
	c, err := New(config(100, pattern.Triangle, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Two triangles: (1,2,3) and (4,5,6); vertex sets disjoint, so all six
	// vertices have count 1 and ties break by id.
	for _, e := range [][2]graph.VertexID{{1, 2}, {2, 3}, {1, 3}, {4, 5}, {5, 6}, {4, 6}} {
		c.Process(stream.Event{Op: stream.Insert, Edge: graph.NewEdge(e[0], e[1])})
	}
	top := c.TopK(3)
	if len(top) != 3 {
		t.Fatalf("TopK(3) returned %d", len(top))
	}
	if top[0].Vertex != 1 || top[1].Vertex != 2 || top[2].Vertex != 3 {
		t.Fatalf("tie-break order wrong: %+v", top)
	}
	if got := c.TopK(100); len(got) != 6 {
		t.Fatalf("TopK beyond size returned %d, want 6", len(got))
	}
}

func TestDeletionDecrementsLocals(t *testing.T) {
	c, err := New(config(100, pattern.Triangle, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]graph.VertexID{{1, 2}, {2, 3}, {1, 3}} {
		c.Process(stream.Event{Op: stream.Insert, Edge: graph.NewEdge(e[0], e[1])})
	}
	if c.Local(1) != 1 {
		t.Fatalf("local(1) = %v, want 1", c.Local(1))
	}
	c.Process(stream.Event{Op: stream.Delete, Edge: graph.NewEdge(2, 3)})
	if c.Local(1) != 0 || c.Vertices() != 0 {
		t.Fatalf("locals not cleaned after destruction: local(1)=%v vertices=%d",
			c.Local(1), c.Vertices())
	}
}

func TestHookChaining(t *testing.T) {
	calls := 0
	cfg := config(100, pattern.Triangle, 1)
	cfg.OnInstance = func(sign, contribution float64, e graph.Edge, others []graph.Edge) {
		calls++
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]graph.VertexID{{1, 2}, {2, 3}, {1, 3}} {
		c.Process(stream.Event{Op: stream.Insert, Edge: graph.NewEdge(e[0], e[1])})
	}
	if calls != 1 {
		t.Fatalf("user hook called %d times, want 1", calls)
	}
	if c.Local(1) != 1 {
		t.Fatal("local counting broken when chaining hooks")
	}
}
