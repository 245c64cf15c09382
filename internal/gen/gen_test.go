package gen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// checkSimple asserts the edge list describes a simple graph: no loops, no
// duplicates.
func checkSimple(t *testing.T, name string, edges []graph.Edge) {
	t.Helper()
	seen := map[graph.Edge]bool{}
	for _, e := range edges {
		if e.IsLoop() {
			t.Fatalf("%s: self-loop %v", name, e)
		}
		if seen[e] {
			t.Fatalf("%s: duplicate edge %v", name, e)
		}
		seen[e] = true
	}
}

func TestGeneratorsProduceSimpleGraphs(t *testing.T) {
	rng := func() *rand.Rand { return rand.New(rand.NewSource(7)) }
	for _, tc := range []struct {
		name  string
		edges []graph.Edge
	}{
		{"ForestFire", ForestFire(500, 0.5, rng())},
		{"BarabasiAlbert", BarabasiAlbert(500, 3, rng())},
		{"HolmeKim", HolmeKim(500, 3, 0.8, rng())},
		{"ErdosRenyi", ErdosRenyi(200, 800, rng())},
		{"PlantedPartition", PlantedPartition(5, 20, 0.3, 0.01, rng())},
		{"CopyingModel", CopyingModel(500, 4, 0.7, rng())},
	} {
		if len(tc.edges) == 0 {
			t.Fatalf("%s: produced no edges", tc.name)
		}
		checkSimple(t, tc.name, tc.edges)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := ForestFire(300, 0.45, rand.New(rand.NewSource(11)))
	b := ForestFire(300, 0.45, rand.New(rand.NewSource(11)))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if ForestFire(1, 0.5, rng) != nil {
		t.Error("ForestFire(1) should be empty")
	}
	if BarabasiAlbert(1, 2, rng) != nil {
		t.Error("BarabasiAlbert(1) should be empty")
	}
	if BarabasiAlbert(10, 0, rng) != nil {
		t.Error("BarabasiAlbert(m=0) should be empty")
	}
	if HolmeKim(0, 3, 0.5, rng) != nil {
		t.Error("HolmeKim(0) should be empty")
	}
	if ErdosRenyi(2, 0, rng) != nil {
		t.Error("ErdosRenyi(m=0) should be empty")
	}
	if CopyingModel(1, 3, 0.5, rng) != nil {
		t.Error("CopyingModel(1) should be empty")
	}
}

func TestErdosRenyiEdgeCountClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	edges := ErdosRenyi(10, 1000, rng)
	if len(edges) != 45 {
		t.Fatalf("G(10, m) must clamp to 45 edges, got %d", len(edges))
	}
}

func TestBarabasiAlbertDegreeSkew(t *testing.T) {
	edges := BarabasiAlbert(3000, 3, rand.New(rand.NewSource(3)))
	g := graph.NewAdjSet()
	for _, e := range edges {
		g.Add(e)
	}
	maxDeg := 0
	for v := graph.VertexID(0); v < 3000; v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	avg := 2 * float64(g.Len()) / 3000
	if float64(maxDeg) < 8*avg {
		t.Fatalf("no hubs: max degree %d vs average %.1f (preferential attachment broken?)", maxDeg, avg)
	}
}

func TestHolmeKimClusteringAboveBA(t *testing.T) {
	rng := func() *rand.Rand { return rand.New(rand.NewSource(4)) }
	tri := func(edges []graph.Edge) int {
		g := graph.NewAdjSet()
		for _, e := range edges {
			g.Add(e)
		}
		n := 0
		for _, e := range edges {
			g.ForEachCommonItem(e.U, e.V, func(graph.VertexID, any, any) bool { n++; return true })
		}
		return n / 3
	}
	hk := tri(HolmeKim(2000, 4, 0.8, rng()))
	ba := tri(BarabasiAlbert(2000, 4, rng()))
	if hk < 2*ba {
		t.Fatalf("Holme-Kim triangles (%d) should far exceed BA (%d)", hk, ba)
	}
}

func TestPlantedPartitionCommunityStructure(t *testing.T) {
	edges := PlantedPartition(4, 25, 0.5, 0.005, rand.New(rand.NewSource(5)))
	intra, inter := 0, 0
	for _, e := range edges {
		if int(e.U)%4 == int(e.V)%4 {
			intra++
		} else {
			inter++
		}
	}
	if intra < 5*inter {
		t.Fatalf("community structure weak: intra=%d inter=%d", intra, inter)
	}
}

func TestCopyingModelTriangleDensity(t *testing.T) {
	edges := CopyingModel(2000, 5, 0.8, rand.New(rand.NewSource(6)))
	g := graph.NewAdjSet()
	for _, e := range edges {
		g.Add(e)
	}
	tri := 0
	for _, e := range edges {
		g.ForEachCommonItem(e.U, e.V, func(graph.VertexID, any, any) bool { tri++; return true })
	}
	tri /= 3
	// Each copy step closes a triangle with the prototype, so triangle count
	// must be at least a noticeable fraction of the vertex count.
	if tri < 1000 {
		t.Fatalf("copying model produced too few triangles: %d", tri)
	}
}

func TestForestFireSimpleProperty(t *testing.T) {
	f := func(seed int64, p8 uint8) bool {
		p := float64(p8) / 256
		edges := ForestFire(100, p, rand.New(rand.NewSource(seed)))
		seen := map[graph.Edge]bool{}
		for _, e := range edges {
			if e.IsLoop() || seen[e] {
				return false
			}
			seen[e] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenHashes pins the exact output of every generator for a fixed
// seed. Go randomizes map iteration order per process, so any generator that
// accidentally emits edges in map order produces different graphs on every
// run — this test catches that class of reproducibility bug across processes.
func TestGoldenHashes(t *testing.T) {
	r := func() *rand.Rand { return rand.New(rand.NewSource(42)) }
	hash := func(edges []graph.Edge) uint64 {
		f := fnv.New64a()
		for _, e := range edges {
			fmt.Fprintf(f, "%d-%d;", e.U, e.V)
		}
		return f.Sum64()
	}
	cases := []struct {
		name  string
		edges []graph.Edge
		want  uint64
	}{
		{"ForestFire", ForestFire(300, 0.5, r()), 0x2806fb8c215bfb4d},
		{"BarabasiAlbert", BarabasiAlbert(300, 3, r()), 0xc2b1f3214a33836d},
		{"HolmeKim", HolmeKim(300, 3, 0.8, r()), 0xc6cc814e64a9f86a},
		{"ErdosRenyi", ErdosRenyi(100, 300, r()), 0xbf2b55953084c82d},
		{"PlantedPartition", PlantedPartition(5, 20, 0.3, 0.01, r()), 0xa10b6253ef47422a},
		{"CopyingModel", CopyingModel(300, 4, 0.7, r()), 0xa167d261d77d5da7},
	}
	for _, tc := range cases {
		if got := hash(tc.edges); got != tc.want {
			t.Errorf("%s: output hash %#x, want %#x (generator output depends on map iteration order?)", tc.name, got, tc.want)
		}
	}
}
