package stream

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func chainEdges(n int) []graph.Edge {
	out := make([]graph.Edge, n)
	for i := range out {
		out[i] = graph.NewEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	return out
}

func TestInsertOnlyDedup(t *testing.T) {
	edges := []graph.Edge{
		graph.NewEdge(1, 2),
		graph.NewEdge(2, 1), // duplicate after normalization
		graph.NewEdge(3, 3), // loop
		graph.NewEdge(2, 3),
	}
	s := InsertOnly(edges)
	if len(s) != 2 {
		t.Fatalf("len = %d, want 2 (dedup + loop removal)", len(s))
	}
	if idx := s.Validate(); idx != -1 {
		t.Fatalf("stream infeasible at %d", idx)
	}
}

func TestValidate(t *testing.T) {
	e := graph.NewEdge(1, 2)
	cases := []struct {
		name string
		s    Stream
		want int
	}{
		{"ok", Stream{{Insert, e}, {Delete, e}, {Insert, e}}, -1},
		{"double insert", Stream{{Insert, e}, {Insert, e}}, 1},
		{"delete absent", Stream{{Delete, e}}, 0},
		{"loop", Stream{{Insert, graph.NewEdge(4, 4)}}, 0},
	}
	for _, tc := range cases {
		if got := tc.s.Validate(); got != tc.want {
			t.Errorf("%s: Validate = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestMassiveDeletionFeasible: generated massive-deletion streams are always
// feasible and bounded by insertions.
func TestMassiveDeletionFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := chainEdges(2000)
	s := MassiveDeletion(edges, 0.01, 0.8, rng)
	if idx := s.Validate(); idx != -1 {
		t.Fatalf("infeasible at event %d: %v", idx, s[idx])
	}
	ins, del := s.Counts()
	if ins != 2000 {
		t.Fatalf("insertions = %d, want 2000", ins)
	}
	if del == 0 {
		t.Fatal("expected some deletions at alpha=0.01 over 2000 insertions")
	}
	if del > ins {
		t.Fatalf("more deletions (%d) than insertions (%d)", del, ins)
	}
}

func TestMassiveDeletionEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edges := chainEdges(1000)
	s := MassiveDeletionEvents(edges, 2, 0.9, 0.4, rng)
	if idx := s.Validate(); idx != -1 {
		t.Fatalf("infeasible at %d", idx)
	}
	// With betaM = 0.9 each event deletes a large batch; two events must
	// produce two contiguous deletion bursts.
	bursts := 0
	inBurst := false
	for _, ev := range s {
		if ev.Op == Delete && !inBurst {
			bursts++
			inBurst = true
		}
		if ev.Op == Insert {
			inBurst = false
		}
	}
	if bursts != 2 {
		t.Fatalf("deletion bursts = %d, want 2", bursts)
	}
	// No event in the protected tail: the last 40% of insertions must be
	// burst-free.
	insSeen := 0
	for _, ev := range s {
		if ev.Op == Insert {
			insSeen++
		} else if insSeen > 600 {
			t.Fatalf("mass deletion after insertion %d, beyond the 60%% window", insSeen)
		}
	}
}

func TestLightDeletionFeasibleProperty(t *testing.T) {
	f := func(seed int64, beta8 uint8) bool {
		beta := float64(beta8%90) / 100
		rng := rand.New(rand.NewSource(seed))
		s := LightDeletion(chainEdges(300), beta, rng)
		return s.Validate() == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLightDeletionRate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := LightDeletion(chainEdges(5000), 0.3, rng)
	ins, del := s.Counts()
	if ins != 5000 {
		t.Fatalf("insertions = %d", ins)
	}
	rate := float64(del) / float64(ins)
	if rate < 0.25 || rate > 0.35 {
		t.Fatalf("deletion rate = %.3f, want ~0.30", rate)
	}
}

func TestFinalGraph(t *testing.T) {
	e1, e2 := graph.NewEdge(1, 2), graph.NewEdge(2, 3)
	s := Stream{{Insert, e1}, {Insert, e2}, {Delete, e1}}
	g := s.FinalGraph()
	if g.Len() != 1 || !g.Has(e2) {
		t.Fatalf("final graph wrong: %v", g.Edges())
	}
}

func TestUAROrderIsPermutation(t *testing.T) {
	edges := chainEdges(500)
	out := UAROrder(edges, rand.New(rand.NewSource(3)))
	if len(out) != len(edges) {
		t.Fatalf("length changed: %d", len(out))
	}
	seen := map[graph.Edge]bool{}
	for _, e := range out {
		seen[e] = true
	}
	for _, e := range edges {
		if !seen[e] {
			t.Fatalf("edge %v lost in permutation", e)
		}
	}
}

func TestRBFSOrderIsPermutationAndBreadthFirst(t *testing.T) {
	// Star around 0 plus a chain: BFS from anywhere reaches everything.
	var edges []graph.Edge
	for i := 1; i <= 50; i++ {
		edges = append(edges, graph.NewEdge(0, graph.VertexID(i)))
	}
	for i := 1; i < 50; i++ {
		edges = append(edges, graph.NewEdge(graph.VertexID(i), graph.VertexID(i+1)))
	}
	out := RBFSOrder(edges, rand.New(rand.NewSource(4)))
	if len(out) != len(edges) {
		t.Fatalf("length changed: %d vs %d", len(out), len(edges))
	}
	seen := map[graph.Edge]bool{}
	for _, e := range out {
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
	}
}

func TestRBFSOrderCoversDisconnected(t *testing.T) {
	edges := []graph.Edge{graph.NewEdge(1, 2), graph.NewEdge(10, 11)}
	out := RBFSOrder(edges, rand.New(rand.NewSource(5)))
	if len(out) != 2 {
		t.Fatalf("disconnected components not covered: %v", out)
	}
}

// TestRBFSOrderPinned pins a seeded RBFSOrder output on a Holme-Kim graph
// by an FNV-64a fingerprint of its edge list: the order depends only on the
// generator's and the shuffle's seeds.
func TestRBFSOrderPinned(t *testing.T) {
	edges := gen.HolmeKim(2000, 4, 0.5, rand.New(rand.NewSource(9)))
	out := RBFSOrder(edges, rand.New(rand.NewSource(11)))
	h := fnv.New64a()
	for _, e := range out {
		fmt.Fprintf(h, "%d %d\n", e.U, e.V)
	}
	if len(out) != 7990 || h.Sum64() != 0x33a02e3d50a19c85 {
		t.Fatalf("RBFSOrder gave %d edges with fingerprint %016x, want 7990 and 33a02e3d50a19c85", len(out), h.Sum64())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := LightDeletion(chainEdges(200), 0.2, rng)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s) {
		t.Fatalf("round trip length %d, want %d", len(got), len(s))
	}
	for i := range s {
		if got[i] != s[i] {
			t.Fatalf("event %d: %v != %v", i, got[i], s[i])
		}
	}
}

func TestReadPlainEdgeList(t *testing.T) {
	in := "# comment\n1 2\n\n2 3\n- 1 2\n"
	s, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := Stream{
		{Insert, graph.NewEdge(1, 2)},
		{Insert, graph.NewEdge(2, 3)},
		{Delete, graph.NewEdge(1, 2)},
	}
	if len(s) != len(want) {
		t.Fatalf("len = %d, want %d", len(s), len(want))
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestReadMalformed(t *testing.T) {
	for _, in := range []string{"1\n", "+ 1\n", "a b\n", "1 2 3\n", "- x 2\n"} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected parse error", in)
		}
	}
}
