package pattern

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func buildView(edges ...graph.Edge) *graph.AdjSet {
	g := graph.NewAdjSet()
	for _, e := range edges {
		g.Add(e)
	}
	return g
}

func collect(k Kind, v ItemView, a, b graph.VertexID) [][]graph.Edge {
	var out [][]graph.Edge
	k.ForEachCompletion(v, a, b, func(others []graph.Edge) bool {
		cp := make([]graph.Edge, len(others))
		copy(cp, others)
		out = append(out, cp)
		return true
	})
	return out
}

func TestSizes(t *testing.T) {
	if Wedge.Size() != 2 || Triangle.Size() != 3 || FourClique.Size() != 6 {
		t.Fatal("pattern sizes wrong")
	}
}

func TestWedgeCompletions(t *testing.T) {
	// u=1 has neighbors 3,4; v=2 has neighbor 5. New edge (1,2) completes
	// three wedges: (1,3)+(1,2), (1,4)+(1,2), (2,5)+(1,2).
	v := buildView(graph.NewEdge(1, 3), graph.NewEdge(1, 4), graph.NewEdge(2, 5))
	got := collect(Wedge, v, 1, 2)
	if len(got) != 3 {
		t.Fatalf("wedge completions = %d, want 3: %v", len(got), got)
	}
	for _, others := range got {
		if len(others) != 1 {
			t.Fatalf("wedge instance has %d other edges, want 1", len(others))
		}
	}
}

func TestWedgeExcludesTheEventEdge(t *testing.T) {
	// Even when (1,2) is already in the view (deletion-time enumeration),
	// it must not appear as the "other" edge of a wedge.
	v := buildView(graph.NewEdge(1, 2), graph.NewEdge(1, 3))
	got := collect(Wedge, v, 1, 2)
	if len(got) != 1 || got[0][0] != graph.NewEdge(1, 3) {
		t.Fatalf("completions = %v, want just [(1,3)]", got)
	}
}

func TestTriangleCompletions(t *testing.T) {
	// Common neighbors of (1,2): 3 and 4; vertex 5 connects only to 1.
	v := buildView(
		graph.NewEdge(1, 3), graph.NewEdge(2, 3),
		graph.NewEdge(1, 4), graph.NewEdge(2, 4),
		graph.NewEdge(1, 5),
	)
	got := collect(Triangle, v, 1, 2)
	if len(got) != 2 {
		t.Fatalf("triangle completions = %d, want 2", len(got))
	}
	for _, others := range got {
		if len(others) != 2 {
			t.Fatalf("triangle instance has %d other edges, want 2", len(others))
		}
		w := others[0].Other(1)
		if others[1] != graph.NewEdge(2, w) {
			t.Fatalf("instance edges inconsistent: %v", others)
		}
	}
}

func TestFourCliqueCompletions(t *testing.T) {
	// K4 minus edge (1,2): inserting (1,2) completes exactly one 4-clique
	// with the other five edges.
	v := buildView(
		graph.NewEdge(1, 3), graph.NewEdge(1, 4),
		graph.NewEdge(2, 3), graph.NewEdge(2, 4),
		graph.NewEdge(3, 4),
	)
	got := collect(FourClique, v, 1, 2)
	if len(got) != 1 {
		t.Fatalf("4-clique completions = %d, want 1", len(got))
	}
	if len(got[0]) != 5 {
		t.Fatalf("instance has %d other edges, want 5", len(got[0]))
	}
	// Without the chord (3,4) there is no completion.
	v.Remove(graph.NewEdge(3, 4))
	if got := collect(FourClique, v, 1, 2); len(got) != 0 {
		t.Fatalf("expected no 4-clique without the chord, got %d", len(got))
	}
}

func TestFourCycleCompletions(t *testing.T) {
	// Square 1-3-2-4-1 missing edge (1,2): inserting (1,2) completes the
	// 4-cycle 1-3-... wait: a C4 through (1,2) needs a length-3 path between
	// 1 and 2. With edges (1,3), (3,4), (4,2) the path 1-3-4-2 exists.
	v := buildView(graph.NewEdge(1, 3), graph.NewEdge(3, 4), graph.NewEdge(4, 2))
	got := collect(FourCycle, v, 1, 2)
	if len(got) != 1 {
		t.Fatalf("4-cycle completions = %d, want 1: %v", len(got), got)
	}
	if len(got[0]) != 3 {
		t.Fatalf("instance has %d other edges, want 3", len(got[0]))
	}
	want := map[graph.Edge]bool{
		graph.NewEdge(1, 3): true, graph.NewEdge(3, 4): true, graph.NewEdge(4, 2): true,
	}
	for _, e := range got[0] {
		if !want[e] {
			t.Fatalf("unexpected instance edge %v", e)
		}
	}
	// A triangle wedge (1-3, 3-2) must NOT be reported as a 4-cycle.
	v2 := buildView(graph.NewEdge(1, 3), graph.NewEdge(3, 2))
	if got := collect(FourCycle, v2, 1, 2); len(got) != 0 {
		t.Fatalf("length-2 path misreported as 4-cycle: %v", got)
	}
}

func TestFourCycleOnK4(t *testing.T) {
	// K4 contains 3 distinct 4-cycles; each contains 4 of the 6 edges, so
	// inserting the last edge (1,2) into K4-e completes the 2 cycles through
	// (1,2).
	v := buildView(
		graph.NewEdge(1, 3), graph.NewEdge(1, 4),
		graph.NewEdge(2, 3), graph.NewEdge(2, 4),
		graph.NewEdge(3, 4),
	)
	if got := FourCycle.CountCompletions(v, 1, 2); got != 2 {
		t.Fatalf("4-cycles through (1,2) in K4 = %d, want 2", got)
	}
}

func TestEarlyStop(t *testing.T) {
	v := buildView(graph.NewEdge(1, 3), graph.NewEdge(1, 4), graph.NewEdge(1, 5))
	n := 0
	Wedge.ForEachCompletion(v, 1, 2, func([]graph.Edge) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("early stop visited %d instances, want 1", n)
	}
}

func TestCountCompletions(t *testing.T) {
	v := buildView(
		graph.NewEdge(1, 3), graph.NewEdge(2, 3),
		graph.NewEdge(1, 4), graph.NewEdge(2, 4),
	)
	if got := Triangle.CountCompletions(v, 1, 2); got != 2 {
		t.Fatalf("CountCompletions = %d, want 2", got)
	}
	if got := Triangle.CountCompletions(v, 7, 8); got != 0 {
		t.Fatalf("CountCompletions on isolated edge = %d, want 0", got)
	}
}

// TestCompletionCountsMatchDeltaOfStaticCounts: for random graphs and random
// new edges, the number of enumerated completions must equal the increase in
// the static pattern count caused by adding that edge.
func TestCompletionCountsMatchDeltaOfStaticCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		g := graph.NewAdjSet()
		for i := 0; i < 60; i++ {
			g.Add(graph.NewEdge(graph.VertexID(rng.Intn(14)), graph.VertexID(rng.Intn(14))))
		}
		var e graph.Edge
		for {
			e = graph.NewEdge(graph.VertexID(rng.Intn(14)), graph.VertexID(rng.Intn(14)))
			if !e.IsLoop() && !g.Has(e) {
				break
			}
		}
		for _, k := range Kinds() {
			before := staticCount(g, k)
			enumerated := k.CountCompletions(g, e.U, e.V)
			g.Add(e)
			after := staticCount(g, k)
			g.Remove(e)
			if after-before != enumerated {
				t.Fatalf("trial %d, %v: delta %d, enumerated %d", trial, k, after-before, enumerated)
			}
		}
	}
}

// staticCount recomputes the pattern count from scratch via per-edge
// completions (each instance counted |H| times).
func staticCount(g *graph.AdjSet, k Kind) int {
	total := 0
	for _, e := range g.Edges() {
		total += k.CountCompletions(g, e.U, e.V)
	}
	return total / k.Size()
}

func TestFiveCliqueCompletions(t *testing.T) {
	// K5 minus the edge (1,2): inserting (1,2) completes exactly one
	// 5-clique with the other nine edges.
	v := buildView(
		graph.NewEdge(1, 3), graph.NewEdge(1, 4), graph.NewEdge(1, 5),
		graph.NewEdge(2, 3), graph.NewEdge(2, 4), graph.NewEdge(2, 5),
		graph.NewEdge(3, 4), graph.NewEdge(3, 5), graph.NewEdge(4, 5),
	)
	got := collect(FiveClique, v, 1, 2)
	if len(got) != 1 {
		t.Fatalf("5-clique completions = %d, want 1", len(got))
	}
	if len(got[0]) != 9 {
		t.Fatalf("instance has %d other edges, want 9", len(got[0]))
	}
	// Removing any triple-internal edge kills the completion.
	v.Remove(graph.NewEdge(4, 5))
	if got := collect(FiveClique, v, 1, 2); len(got) != 0 {
		t.Fatalf("expected no 5-clique after removing a chord, got %d", len(got))
	}
}

func TestFiveCliqueOnK6(t *testing.T) {
	// K6 minus one edge: inserting the last edge completes C(4,3) = 4
	// distinct 5-cliques through it.
	var edges []graph.Edge
	for i := graph.VertexID(1); i <= 6; i++ {
		for j := i + 1; j <= 6; j++ {
			if !(i == 1 && j == 2) {
				edges = append(edges, graph.NewEdge(i, j))
			}
		}
	}
	v := buildView(edges...)
	if got := FiveClique.CountCompletions(v, 1, 2); got != 4 {
		t.Fatalf("5-cliques through (1,2) in K6 = %d, want 4", got)
	}
}
