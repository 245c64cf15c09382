package pattern

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/reservoir"
)

// canon sorts an instance list (and each instance's edges) into a canonical
// order: the underlying views iterate hash maps, so two enumerations of the
// same graph may yield the same instances in different orders, and the same
// clique instance with its vertices discovered in a different sequence.
func canon(instances [][]graph.Edge) [][]graph.Edge {
	for _, inst := range instances {
		sort.Slice(inst, func(i, j int) bool {
			if inst[i].U != inst[j].U {
				return inst[i].U < inst[j].U
			}
			return inst[i].V < inst[j].V
		})
	}
	sort.Slice(instances, func(i, j int) bool {
		return fmt.Sprint(instances[i]) < fmt.Sprint(instances[j])
	})
	return instances
}

// randomGraph builds a dense-ish random graph so every pattern kind has
// instances to enumerate.
func randomGraph(n, edges int, rng *rand.Rand) *graph.AdjSet {
	g := graph.NewAdjSet()
	for g.Len() < edges {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		g.Add(graph.NewEdge(u, v))
	}
	return g
}

// TestMultiCompleterMatchesSingleCompleters: for every kind order and every
// probed edge, the multi-pass enumeration must yield exactly the instances
// the per-kind Completers yield, in the same per-kind order.
func TestMultiCompleterMatchesSingleCompleters(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(30, 180, rng)

	kindSets := [][]Kind{
		{Wedge, Triangle, FourClique},
		{FourClique, Triangle, Wedge}, // collection order must not matter
		{Triangle, FiveClique, FourCycle, Wedge, FourClique},
		{FourCycle},
		{FiveClique, Triangle},
	}
	for _, kinds := range kindSets {
		mc, err := NewMultiCompleter(kinds)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			a := graph.VertexID(rng.Intn(30))
			b := graph.VertexID(rng.Intn(30))
			if a == b {
				continue
			}
			got := make([][][]graph.Edge, len(kinds))
			fns := make([]func([]graph.Edge, []any) bool, len(kinds))
			for i := range kinds {
				i := i
				fns[i] = func(others []graph.Edge, _ []any) bool {
					cp := make([]graph.Edge, len(others))
					copy(cp, others)
					got[i] = append(got[i], cp)
					return true
				}
			}
			mc.ForEach(g, a, b, fns, nil)
			for i, k := range kinds {
				want := canon(collect(k, g, a, b))
				got[i] = canon(got[i])
				if len(want) == 0 && len(got[i]) == 0 {
					continue
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Fatalf("kinds %v edge (%d,%d): %s instances differ:\nmulti:  %v\nsingle: %v",
						kinds, a, b, k, got[i], want)
				}
			}
		}
	}
}

// TestMultiCompleterEarlyStopIsPerKind: a callback returning false stops only
// its own kind's enumeration; the other kinds still see every instance.
func TestMultiCompleterEarlyStopIsPerKind(t *testing.T) {
	// K5 on vertices 0..4 minus edge (0,1): probing (0,1) completes wedges,
	// triangles, and 4-cliques.
	g := graph.NewAdjSet()
	for u := graph.VertexID(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			if u == 0 && v == 1 {
				continue
			}
			g.Add(graph.NewEdge(u, v))
		}
	}
	mc, err := NewMultiCompleter([]Kind{Wedge, Triangle, FourClique})
	if err != nil {
		t.Fatal(err)
	}
	wedges, triangles, cliques := 0, 0, 0
	mc.ForEach(g, 0, 1, []func([]graph.Edge, []any) bool{
		func([]graph.Edge, []any) bool { wedges++; return false }, // stop after 1
		func([]graph.Edge, []any) bool { triangles++; return true },
		func([]graph.Edge, []any) bool { cliques++; return true },
	}, nil)
	if wedges != 1 {
		t.Fatalf("stopped wedge enumeration saw %d instances, want 1", wedges)
	}
	if want := Triangle.CountCompletions(g, 0, 1); triangles != want {
		t.Fatalf("triangles = %d, want %d", triangles, want)
	}
	if want := FourClique.CountCompletions(g, 0, 1); cliques != want {
		t.Fatalf("4-cliques = %d, want %d", cliques, want)
	}
}

// TestMultiCompleterNilCallbackSkipsKind: nil callbacks disable a kind
// without disturbing the others (including the shared clique collection when
// the would-be collector is skipped).
func TestMultiCompleterNilCallbackSkipsKind(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(20, 100, rng)
	mc, err := NewMultiCompleter([]Kind{Triangle, FourClique})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		a := graph.VertexID(rng.Intn(20))
		b := graph.VertexID(rng.Intn(20))
		if a == b {
			continue
		}
		n := 0
		mc.ForEach(g, a, b, []func([]graph.Edge, []any) bool{
			nil, // triangle (the first clique kind) skipped: 4-clique must collect itself
			func([]graph.Edge, []any) bool { n++; return true },
		}, nil)
		if want := FourClique.CountCompletions(g, a, b); n != want {
			t.Fatalf("edge (%d,%d): 4-cliques with triangle skipped = %d, want %d", a, b, n, want)
		}
	}
}

// countingFns returns one counting callback per kind, tallying into counts.
func countingFns(counts []int) []func([]graph.Edge, []any) bool {
	fns := make([]func([]graph.Edge, []any) bool, len(counts))
	for i := range fns {
		fns[i] = func([]graph.Edge, []any) bool { counts[i]++; return true }
	}
	return fns
}

// TestMultiCompleterCounts: one pass over all five kinds counts, per kind,
// what CountCompletions counts, on a plain graph and on a reservoir.
func TestMultiCompleterCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	kinds := []Kind{Wedge, Triangle, FourCycle, FourClique, FiveClique}
	mc, err := NewMultiCompleter(kinds)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(kinds))
	fns := countingFns(counts)
	for _, v := range []ItemView{randomGraph(25, 140, rng), reservoirGraph(25, 140, rng)} {
		for trial := 0; trial < 20; trial++ {
			a := graph.VertexID(rng.Intn(25))
			b := graph.VertexID(rng.Intn(25))
			if a == b {
				continue
			}
			clear(counts)
			mc.ForEach(v, a, b, fns, nil)
			for i, k := range kinds {
				if want := k.CountCompletions(v, a, b); counts[i] != want {
					t.Fatalf("%T edge (%d,%d): %s count = %d, want %d", v, a, b, k, counts[i], want)
				}
			}
		}
	}
}

// countSink tallies the instances a CliqueSink receives per clique kind.
type countSink struct{ commons, tri, four, five int }

func (s *countSink) OnCommon(int, graph.VertexID, any, any)     { s.commons++ }
func (s *countSink) OnTriangle(int) bool                        { s.tri++; return true }
func (s *countSink) OnPair(int, int, any) bool                  { s.four++; return true }
func (s *countSink) OnTriple(int, int, int, any, any, any) bool { s.five++; return true }

// TestMultiCompleterSinkMixedKinds: one pass over all five kinds with a sink
// on a reservoir delivers the wedge and 4-cycle instances to fns and every
// clique kind's instances to the sink, each kind's count equal to
// CountCompletions, and fires OnCommon once per common neighbor.
func TestMultiCompleterSinkMixedKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	res := reservoirGraph(22, 150, rng)
	kinds := []Kind{Triangle, Wedge, FiveClique, FourCycle, FourClique}
	mc, err := NewMultiCompleter(kinds)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(kinds))
	fns := countingFns(counts)
	for trial := 0; trial < 40; trial++ {
		a := graph.VertexID(rng.Intn(22))
		b := graph.VertexID(rng.Intn(22))
		if a == b {
			continue
		}
		clear(counts)
		var sink countSink
		mc.ForEach(res, a, b, fns, &sink)
		got := map[Kind]int{
			Wedge: counts[1], FourCycle: counts[3],
			Triangle: sink.tri, FourClique: sink.four, FiveClique: sink.five,
		}
		for _, i := range []int{0, 2, 4} {
			if counts[i] != 0 {
				t.Fatalf("edge (%d,%d): %s instances reached fns despite the sink", a, b, kinds[i])
			}
		}
		for k, n := range got {
			if want := k.CountCompletions(res, a, b); n != want {
				t.Fatalf("edge (%d,%d): %s count = %d, want %d", a, b, k, n, want)
			}
		}
		if want := Triangle.CountCompletions(res, a, b); sink.commons != want {
			t.Fatalf("edge (%d,%d): OnCommon fired %d times, want %d", a, b, sink.commons, want)
		}
	}
}

// TestMultiCompleterSinkNeedsIntersectView: a sink over a view without
// sorted intersection is a caller bug and panics.
func TestMultiCompleterSinkNeedsIntersectView(t *testing.T) {
	g := itemOnlyView{buildView(graph.NewEdge(1, 3), graph.NewEdge(2, 3))}
	mc, err := NewMultiCompleter([]Kind{Triangle})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ForEach with a sink over a view without IntersectView did not panic")
		}
	}()
	mc.ForEach(g, 1, 2, make([]func([]graph.Edge, []any) bool, 1), &countSink{})
}

// TestMultiCompleterRejectsBadSets: empty, duplicate, and unknown kinds fail
// at construction.
func TestMultiCompleterRejectsBadSets(t *testing.T) {
	for name, kinds := range map[string][]Kind{
		"empty":     {},
		"duplicate": {Triangle, Wedge, Triangle},
		"unknown":   {Triangle, Kind(99)},
	} {
		if _, err := NewMultiCompleter(kinds); err == nil {
			t.Errorf("%s kind set accepted", name)
		}
	}
}

// reservoirGraph loads a random graph into a real reservoir so the tests run
// against the IntersectView hot path.
func reservoirGraph(n, edges int, rng *rand.Rand) *reservoir.Reservoir {
	res := reservoir.New(edges)
	for res.Len() < edges {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		e := graph.NewEdge(u, v)
		if _, ok := res.Get(e); ok {
			continue
		}
		res.PushValue(e, 1, rng.Float64(), int64(res.Len()))
	}
	return res
}

// TestMultiCompleterSharerScratchCleared: after a multi-pass enumeration, the
// sharer completers must not keep aliasing the collector's common-neighborhood
// backing arrays (the regression: a later pass in which a former sharer
// collects appended into the collector's array). Interleaves full passes with
// passes whose earlier clique callbacks are nil, so a former sharer collects,
// and cross-checks every count against CountCompletions.
func TestMultiCompleterSharerScratchCleared(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	res := reservoirGraph(20, 120, rng)
	kinds := []Kind{Triangle, FourClique, FiveClique}
	mc, err := NewMultiCompleter(kinds)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(kinds))
	all := countingFns(counts)
	check := func(trial int, fns []func([]graph.Edge, []any) bool, a, b graph.VertexID) {
		t.Helper()
		clear(counts)
		mc.ForEach(res, a, b, fns, nil)
		for i, k := range kinds {
			want := 0
			if fns[i] != nil {
				want = k.CountCompletions(res, a, b)
			}
			if counts[i] != want {
				t.Fatalf("trial %d edge (%d,%d): %s count = %d, want %d", trial, a, b, k, counts[i], want)
			}
		}
	}
	for trial := 0; trial < 30; trial++ {
		a := graph.VertexID(rng.Intn(20))
		b := graph.VertexID(rng.Intn(20))
		a2 := graph.VertexID(rng.Intn(20))
		b2 := graph.VertexID(rng.Intn(20))
		if a == b || a2 == b2 {
			continue
		}
		check(trial, all, a, b)
		// The sharers must have dropped the collector's scratch.
		for i, c := range mc.comps[1:] {
			if c.common != nil || c.payA != nil || c.payB != nil {
				t.Fatalf("trial %d: sharer %s retains aliased scratch after ForEach", trial, kinds[i+1])
			}
		}
		// Interleave: each former sharer collects on a different edge, which
		// pre-fix appended into the collector's backing array.
		check(trial, []func([]graph.Edge, []any) bool{nil, all[1], all[2]}, a2, b2)
		check(trial, []func([]graph.Edge, []any) bool{nil, nil, all[2]}, a2, b2)
		// The full pass must still agree despite the interleaving.
		check(trial, all, a, b)
	}
}

// TestMultiCompleterCountsAllocFree: counting through ForEach with prebuilt
// callbacks is allocation-free per call, with and without a sink.
func TestMultiCompleterCountsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	res := reservoirGraph(20, 120, rng)
	mc, err := NewMultiCompleter([]Kind{Wedge, Triangle, FourCycle, FourClique, FiveClique})
	if err != nil {
		t.Fatal(err)
	}
	fns := countingFns(make([]int, 5))
	sink := &countSink{}
	mc.ForEach(res, 1, 2, fns, nil) // warm the enumeration scratch
	mc.ForEach(res, 1, 2, fns, sink)
	for _, s := range []CliqueSink{nil, sink} {
		allocs := testing.AllocsPerRun(100, func() {
			mc.ForEach(res, 3, 4, fns, s)
		})
		if allocs != 0 {
			t.Fatalf("ForEach (sink %v) allocates %v per call, want 0", s != nil, allocs)
		}
	}
}
