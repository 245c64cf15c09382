package reservoir

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func item(u, v graph.VertexID, rank float64) *Item {
	return &Item{Edge: graph.NewEdge(u, v), Weight: 1, Rank: rank}
}

func TestPushPopOrdering(t *testing.T) {
	r := New(10)
	ranks := []float64{5, 1, 9, 3, 7}
	for i, rk := range ranks {
		r.Push(item(graph.VertexID(i), graph.VertexID(i+100), rk))
	}
	sort.Float64s(ranks)
	for _, want := range ranks {
		got := r.PopMin()
		if got == nil || got.Rank != want {
			t.Fatalf("PopMin rank = %v, want %v", got, want)
		}
	}
	if r.PopMin() != nil {
		t.Fatal("PopMin on empty should return nil")
	}
}

func TestCapacityAndDuplicatePanics(t *testing.T) {
	r := New(1)
	r.Push(item(1, 2, 1))
	for name, fn := range map[string]func(){
		"overflow":  func() { r.Push(item(3, 4, 2)) },
		"duplicate": func() { r2 := New(2); r2.Push(item(1, 2, 1)); r2.Push(item(2, 1, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
	if !r.Full() {
		t.Fatal("reservoir with 1/1 items should be full")
	}
}

// TestDuplicatePushLeavesReservoirUnchanged pins the fused duplicate check:
// Push finds a duplicate while linking the edge's first endpoint, and must
// panic before it writes anything. After each recovered panic the sample
// keeps its size, its items, its heap order and its rows. Rows of every
// length class are covered, including full ones (length a power of two),
// whose next insert would move the row, and a stored self-loop, whose row
// holds two entries under one key.
func TestDuplicatePushLeavesReservoirUnchanged(t *testing.T) {
	r := New(64)
	var edges []graph.Edge
	rank := 0.0
	// Scrambled ranks, so the heap order differs from the push order.
	push := func(u, v graph.VertexID) {
		rank += 1.5
		r.Push(item(u, v, float64(int(rank*7)%23)+rank/100))
		edges = append(edges, graph.NewEdge(u, v))
	}
	for v := graph.VertexID(1); v <= 8; v++ { // vertex 0's row fills to 8
		push(0, v)
	}
	push(1, 2)
	push(1, 3) // vertex 1's row: 0, 2, 3
	push(5, 5) // self-loop
	type snap struct {
		heap []*Item
		rows map[graph.VertexID][]graph.VertexID
	}
	take := func() snap {
		s := snap{heap: append([]*Item(nil), r.heap...), rows: map[graph.VertexID][]graph.VertexID{}}
		for v := graph.VertexID(0); v <= 8; v++ {
			s.rows[v], _ = rowOf(r, v)
		}
		return s
	}
	before := take()
	items := map[graph.Edge]*Item{}
	for _, e := range edges {
		it, _ := r.Get(e)
		items[e] = it
	}
	for _, e := range edges {
		for _, dup := range []*Item{item(e.U, e.V, 99), item(e.V, e.U, 0.5), items[e]} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("duplicate push of %v did not panic", e)
					}
				}()
				r.Push(dup)
			}()
			if r.Len() != len(edges) {
				t.Fatalf("after duplicate %v: Len = %d, want %d", e, r.Len(), len(edges))
			}
			for _, f := range edges {
				if it, ok := r.Get(f); !ok || it != items[f] {
					t.Fatalf("after duplicate %v: Get(%v) = %p, %v; want %p", e, f, it, ok, items[f])
				}
			}
			after := take()
			for i := range before.heap {
				if after.heap[i] != before.heap[i] || after.heap[i].heapIdx != i {
					t.Fatalf("after duplicate %v: heap slot %d changed", e, i)
				}
			}
			for v, row := range before.rows {
				if got := after.rows[v]; !slices.Equal(got, row) {
					t.Fatalf("after duplicate %v: row %d = %v, want %v", e, v, got, row)
				}
			}
		}
	}
	// The sample still works: the minimum pops in rank order and a fresh
	// edge (and a fresh self-loop) link normally.
	r.Push(item(0, 9, -1))
	r.Push(item(6, 6, -2))
	if got := r.PopMin(); got.Edge != graph.NewEdge(6, 6) {
		t.Fatalf("PopMin = %v, want the fresh self-loop", got.Edge)
	}
	if !hasEdge(r, 0, 9) || !hasEdge(r, 5, 5) {
		t.Fatal("reservoir lost an edge after the recovered panics")
	}
}

func TestNewValidatesCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) should panic")
		}
	}()
	New(0)
}

func TestRemoveMiddle(t *testing.T) {
	r := New(10)
	for i := 0; i < 8; i++ {
		r.Push(item(graph.VertexID(i), graph.VertexID(i+100), float64(i)))
	}
	removed := r.Remove(graph.NewEdge(4, 104))
	if removed == nil || removed.Rank != 4 {
		t.Fatalf("Remove returned %v", removed)
	}
	if r.Remove(graph.NewEdge(4, 104)) != nil {
		t.Fatal("double remove should return nil")
	}
	// Remaining pops must still come out sorted.
	prev := -1.0
	for r.Len() > 0 {
		it := r.PopMin()
		if it.Rank <= prev {
			t.Fatalf("heap order broken after middle removal: %v after %v", it.Rank, prev)
		}
		prev = it.Rank
	}
}

func TestAdjacencyView(t *testing.T) {
	r := New(10)
	r.Push(item(1, 2, 1))
	r.Push(item(1, 3, 2))
	r.Push(item(2, 3, 3))
	if !hasEdge(r, 2, 1) || !hasEdge(r, 3, 2) {
		t.Fatal("edge lookup broken")
	}
	if r.Degree(1) != 2 || r.Degree(3) != 2 {
		t.Fatalf("degrees wrong: %d %d", r.Degree(1), r.Degree(3))
	}
	if nbrs, _ := rowOf(r, 1); len(nbrs) != 2 {
		t.Fatalf("neighbors of 1 = %v", nbrs)
	}
	r.Remove(graph.NewEdge(1, 2))
	if hasEdge(r, 1, 2) || r.Degree(1) != 1 {
		t.Fatal("adjacency not updated after removal")
	}
}

func TestLiveViewFiltersDeleted(t *testing.T) {
	r := New(10)
	r.Push(item(1, 2, 1))
	r.Push(item(1, 3, 2))
	it, _ := r.Get(graph.NewEdge(1, 2))
	r.SetDeleted(it, true)
	live := r.Live()
	if hasEdge(live, 1, 2) {
		t.Fatal("live view exposes a DEL-tagged edge")
	}
	if !hasEdge(live, 1, 3) {
		t.Fatal("live view hides an untagged edge")
	}
	n := 0
	live.ForEachNeighborItem(1, func(graph.VertexID, any) bool { n++; return true })
	if n != 1 {
		t.Fatalf("live neighbors of 1 = %d, want 1", n)
	}
	// The raw view still sees both.
	if !hasEdge(r, 1, 2) || r.Degree(1) != 2 {
		t.Fatal("raw view must include tagged edges")
	}
}

// TestHeapInvariantUnderRandomOps drives random push/pop/remove sequences and
// checks heap order, index consistency, and size bounds.
func TestHeapInvariantUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := New(50)
	present := map[graph.Edge]bool{}
	for op := 0; op < 20000; op++ {
		switch rng.Intn(3) {
		case 0:
			if r.Full() {
				continue
			}
			e := graph.NewEdge(graph.VertexID(rng.Intn(40)), graph.VertexID(40+rng.Intn(40)))
			if present[e] {
				continue
			}
			r.Push(&Item{Edge: e, Weight: 1, Rank: rng.Float64()})
			present[e] = true
		case 1:
			if it := r.PopMin(); it != nil {
				delete(present, it.Edge)
				if m := r.Min(); m != nil && m.Rank < it.Rank {
					t.Fatalf("op %d: PopMin returned %v but min is now %v", op, it.Rank, m.Rank)
				}
			}
		case 2:
			e := graph.NewEdge(graph.VertexID(rng.Intn(40)), graph.VertexID(40+rng.Intn(40)))
			if r.Remove(e) != nil {
				delete(present, e)
			}
		}
		if r.Len() != len(present) {
			t.Fatalf("op %d: size %d, reference %d", op, r.Len(), len(present))
		}
	}
}

// TestMinIsGlobalMinProperty: Min always returns the smallest rank present.
func TestMinIsGlobalMinProperty(t *testing.T) {
	f := func(ranks []float64) bool {
		if len(ranks) == 0 {
			return true
		}
		if len(ranks) > 64 {
			ranks = ranks[:64]
		}
		r := New(64)
		min := ranks[0]
		for i, rk := range ranks {
			r.Push(&Item{Edge: graph.NewEdge(graph.VertexID(i), graph.VertexID(i+1000)), Rank: rk})
			if rk < min {
				min = rk
			}
		}
		return r.Min().Rank == min
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestNeighborOrderSorted: enumeration yields neighbors in ascending ID order
// regardless of insertion order — the invariant the merge intersection relies
// on.
func TestNeighborOrderSorted(t *testing.T) {
	r := New(64)
	rng := rand.New(rand.NewSource(11))
	for _, v := range rng.Perm(40) {
		if v == 20 {
			continue
		}
		r.Push(item(20, graph.VertexID(v+100), rng.Float64()))
	}
	prev := graph.VertexID(0)
	first := true
	r.ForEachNeighborItem(20, func(v graph.VertexID, _ any) bool {
		if !first && v <= prev {
			t.Fatalf("neighbors out of order: %d after %d", v, prev)
		}
		prev, first = v, false
		return true
	})
	if first {
		t.Fatal("no neighbors enumerated")
	}
}

// TestLiveDegreeHeavyTagging: on a reservoir where most edges around a hub
// are DEL-tagged, LiveView.Degree must report the live count, not the
// DEL-inclusive one (the old behavior), and must track untagging and removal.
func TestLiveDegreeHeavyTagging(t *testing.T) {
	r := New(128)
	const hub = graph.VertexID(0)
	for v := graph.VertexID(1); v <= 40; v++ {
		r.Push(item(hub, v, float64(v)))
	}
	// Tag 30 of the 40 spokes.
	for v := graph.VertexID(1); v <= 30; v++ {
		it, _ := r.Get(graph.NewEdge(hub, v))
		r.SetDeleted(it, true)
	}
	live := r.Live()
	if got := live.Degree(hub); got != 10 {
		t.Fatalf("live degree = %d, want 10", got)
	}
	if got := r.Degree(hub); got != 40 {
		t.Fatalf("raw degree = %d, want 40", got)
	}
	// Redundant re-tagging must not double-count.
	it, _ := r.Get(graph.NewEdge(hub, 1))
	r.SetDeleted(it, true)
	if got := live.Degree(hub); got != 10 {
		t.Fatalf("live degree after redundant tag = %d, want 10", got)
	}
	// Untag a few.
	for v := graph.VertexID(1); v <= 5; v++ {
		it, _ := r.Get(graph.NewEdge(hub, v))
		r.SetDeleted(it, false)
	}
	if got := live.Degree(hub); got != 15 {
		t.Fatalf("live degree after untagging = %d, want 15", got)
	}
	// Removing tagged edges keeps the counts consistent.
	for v := graph.VertexID(6); v <= 30; v++ {
		r.Remove(graph.NewEdge(hub, v))
	}
	if got, want := live.Degree(hub), 15; got != want {
		t.Fatalf("live degree after removals = %d, want %d", got, want)
	}
	if got := r.Degree(hub); got != 15 {
		t.Fatalf("raw degree after removals = %d, want 15", got)
	}
	for v := graph.VertexID(1); v <= 40; v++ {
		if n := r.tagged[v]; n != 0 {
			t.Fatalf("spoke %d retains tagged count %d", v, n)
		}
	}
}

// TestForEachCommonItem cross-checks the merge intersection (both the linear
// and the binary-probe regime, plain and live views) against a brute-force
// reference.
func TestForEachCommonItem(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r := New(4096)
	// Vertex 1 gets high degree, vertex 2 low degree, so the |adj[2]| vs
	// |adj[1]| ratio exceeds the store's probe ratio (8) and exercises the probe path; vertices
	// 3 and 4 get comparable degrees for the merge path.
	for v := graph.VertexID(10); v < 500; v++ {
		r.Push(item(1, v, rng.Float64()))
	}
	for _, v := range []graph.VertexID{10, 11, 200, 499, 700} {
		r.Push(item(2, v, rng.Float64()))
	}
	for v := graph.VertexID(10); v < 60; v += 2 {
		r.Push(item(3, v, rng.Float64()))
	}
	for v := graph.VertexID(11); v < 61; v += 3 {
		r.Push(item(4, v, rng.Float64()))
	}
	r.Push(item(3, 4, rng.Float64())) // a-b edge itself: must never be emitted
	// Tag a few edges to differentiate the live view.
	for _, e := range [][2]graph.VertexID{{1, 10}, {2, 200}, {3, 12}} {
		it, ok := r.Get(graph.NewEdge(e[0], e[1]))
		if !ok {
			t.Fatalf("setup edge %v missing", e)
		}
		r.SetDeleted(it, true)
	}

	bruteCommon := func(a, b graph.VertexID, liveOnly bool) map[graph.VertexID][2]*Item {
		out := map[graph.VertexID][2]*Item{}
		vs, its := rowOf(r, a)
		for i, w := range vs {
			ia := its[i]
			if w == a || w == b {
				continue
			}
			eb, ok := r.Get(graph.NewEdge(b, w))
			if !ok {
				continue
			}
			if liveOnly && (ia.Deleted || eb.Deleted) {
				continue
			}
			out[w] = [2]*Item{ia, eb}
		}
		return out
	}

	for _, pair := range [][2]graph.VertexID{{1, 2}, {2, 1}, {3, 4}, {1, 3}, {2, 4}, {5, 6}} {
		a, b := pair[0], pair[1]
		for _, liveOnly := range []bool{false, true} {
			want := bruteCommon(a, b, liveOnly)
			got := map[graph.VertexID][2]*Item{}
			prev, first := graph.VertexID(0), true
			visit := func(w graph.VertexID, payA, payB any) bool {
				if !first && w <= prev {
					t.Fatalf("common(%d,%d) out of order: %d after %d", a, b, w, prev)
				}
				prev, first = w, false
				got[w] = [2]*Item{payA.(*Item), payB.(*Item)}
				return true
			}
			if liveOnly {
				r.Live().ForEachCommonItem(a, b, visit)
			} else {
				r.ForEachCommonItem(a, b, visit)
			}
			if len(got) != len(want) {
				t.Fatalf("common(%d,%d,live=%v): got %d, want %d", a, b, liveOnly, len(got), len(want))
			}
			for w, items := range want {
				g, ok := got[w]
				if !ok || g != items {
					t.Fatalf("common(%d,%d,live=%v) at %d: payload mismatch", a, b, liveOnly, w)
				}
			}
		}
	}
	// Early termination stops the walk.
	calls := 0
	r.ForEachCommonItem(3, 4, func(graph.VertexID, any, any) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("early-stop walk made %d calls", calls)
	}
}

// TestForEachAdjacentIn cross-checks candidate-suffix intersection against
// brute force in both regimes and both views.
func TestForEachAdjacentIn(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r := New(2048)
	for v := graph.VertexID(100); v < 400; v++ {
		if rng.Intn(2) == 0 {
			r.Push(item(7, v, rng.Float64()))
		}
	}
	nbrs, _ := rowOf(r, 7)
	it, _ := r.Get(graph.NewEdge(7, nbrs[0]))
	r.SetDeleted(it, true)

	cands := []graph.VertexID{}
	for v := graph.VertexID(90); v < 410; v += 3 {
		cands = append(cands, v)
	}
	for _, from := range []int{0, 5, len(cands) - 2, len(cands)} {
		for _, liveOnly := range []bool{false, true} {
			want := map[int]*Item{}
			for j := from; j < len(cands); j++ {
				if got, ok := r.Get(graph.NewEdge(7, cands[j])); ok && !(liveOnly && got.Deleted) {
					want[j] = got
				}
			}
			got := map[int]*Item{}
			visit := func(j int, payload any) bool {
				got[j] = payload.(*Item)
				return true
			}
			if liveOnly {
				r.Live().ForEachAdjacentIn(7, cands, from, visit)
			} else {
				r.ForEachAdjacentIn(7, cands, from, visit)
			}
			if len(got) != len(want) {
				t.Fatalf("adjacentIn(from=%d,live=%v): got %d, want %d", from, liveOnly, len(got), len(want))
			}
			for j, w := range want {
				if got[j] != w {
					t.Fatalf("adjacentIn(from=%d,live=%v) at %d: payload mismatch", from, liveOnly, j)
				}
			}
		}
	}
	// Probe regime: a tiny candidate suffix against the long list.
	tail := cands[len(cands)-3:]
	n := 0
	r.ForEachAdjacentIn(7, tail, 0, func(int, any) bool { n++; return true })
	wantN := 0
	for _, v := range tail {
		if _, ok := r.Get(graph.NewEdge(7, v)); ok {
			wantN++
		}
	}
	if n != wantN {
		t.Fatalf("probe regime found %d, want %d", n, wantN)
	}
}

func BenchmarkPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r := New(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := graph.NewEdge(graph.VertexID(i%5000), graph.VertexID(5000+i%5000))
		if r.Full() {
			r.PopMin()
		}
		if _, ok := r.Get(e); !ok {
			r.Push(&Item{Edge: e, Rank: rng.Float64()})
		}
	}
}

// TestForEachPairAmong cross-checks the mark-array pair enumeration against
// brute force over random graphs, in both views, including the regression
// where a candidate's neighbor ID exceeded the largest candidate (and hence
// the mark array's length): the walk must skip it, not fault.
func TestForEachPairAmong(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		r := New(4096)
		// Dense low-ID block plus neighbors far above any candidate, so
		// adjacency rows extend past the mark array.
		nVerts := 8 + rng.Intn(40)
		for u := graph.VertexID(0); int(u) < nVerts; u++ {
			for v := u + 1; int(v) < nVerts; v++ {
				if rng.Intn(3) == 0 {
					r.Push(item(u, v, rng.Float64()))
				}
			}
			if rng.Intn(2) == 0 {
				r.Push(item(u, graph.VertexID(1000+rng.Intn(100)), rng.Float64()))
			}
		}
		for _, it := range r.Items() {
			if rng.Intn(5) == 0 {
				r.SetDeleted(it, true)
			}
		}
		var cands []graph.VertexID
		for v := graph.VertexID(0); int(v) < nVerts; v++ {
			if rng.Intn(2) == 0 {
				cands = append(cands, v)
			}
		}
		for _, liveOnly := range []bool{false, true} {
			type pair struct{ i, j int }
			want := map[pair]*Item{}
			for i := 0; i < len(cands); i++ {
				for j := i + 1; j < len(cands); j++ {
					if it, ok := r.Get(graph.NewEdge(cands[i], cands[j])); ok && !(liveOnly && it.Deleted) {
						want[pair{i, j}] = it
					}
				}
			}
			got := map[pair]*Item{}
			prev := pair{-1, -1}
			visit := func(i, j int, payload any) bool {
				if i < prev.i || (i == prev.i && j <= prev.j) {
					t.Fatalf("trial %d live=%v: pair (%d,%d) out of order after (%d,%d)", trial, liveOnly, i, j, prev.i, prev.j)
				}
				prev = pair{i, j}
				got[pair{i, j}] = payload.(*Item)
				return true
			}
			var ok bool
			if liveOnly {
				ok = r.Live().ForEachPairAmong(cands, visit)
			} else {
				ok = r.ForEachPairAmong(cands, visit)
			}
			if !ok {
				t.Fatalf("trial %d: ForEachPairAmong declined in-range candidates", trial)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d live=%v: got %d pairs, want %d", trial, liveOnly, len(got), len(want))
			}
			for p, it := range want {
				if got[p] != it {
					t.Fatalf("trial %d live=%v: pair %v payload mismatch", trial, liveOnly, p)
				}
			}
		}
	}
}

// TestForEachPairAmongEdgeCases covers early stop, short candidate lists, and
// the out-of-range decline that routes callers to the merge fallback.
func TestForEachPairAmongEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := New(64)
	for u := graph.VertexID(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			r.Push(item(u, v, rng.Float64()))
		}
	}
	// Early stop after the first pair.
	calls := 0
	r.ForEachPairAmong([]graph.VertexID{0, 1, 2, 3, 4}, func(int, int, any) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("early-stop walk made %d calls", calls)
	}
	// Degenerate candidate lists always succeed without calling fn.
	for _, cands := range [][]graph.VertexID{nil, {0}, {1}} {
		if !r.ForEachPairAmong(cands, func(int, int, any) bool { t.Fatal("fn called"); return true }) {
			t.Fatalf("declined degenerate candidates %v", cands)
		}
	}
	// Candidates beyond the store's mark array are declined without
	// enumeration.
	big := []graph.VertexID{0, 1, farID + 7}
	if r.ForEachPairAmong(big, func(int, int, any) bool { t.Fatal("fn called"); return true }) {
		t.Fatal("accepted candidates beyond the mark array")
	}
}

// TestIndexFootprintScalesWithSample pins the vertex index's memory to the
// sample, not the ID space: a reservoir of 1,000 edges whose endpoints are
// spread over IDs up to 2^20 must allocate well under what one 48-byte
// adjacency header per ID below the largest (about 100 MB here) would cost.
// The index spends 4 bytes per ID; the adjacency rows scale with the sample.
func TestIndexFootprintScalesWithSample(t *testing.T) {
	const capacity = 1000
	r := New(capacity)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < capacity; i++ {
		u := graph.VertexID(i * (1 << 20) / capacity)
		r.PushValue(graph.NewEdge(u, u+1), 1, float64(i+1), int64(i))
	}
	runtime.ReadMemStats(&after)

	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("%d edges over IDs up to 2^20 allocated %d bytes, budget 16 MB; the vertex index scales with the ID space", capacity, grew)
	}
	checkInvariants(t, r)
	for i := 0; i < capacity; i++ {
		u := graph.VertexID(i * (1 << 20) / capacity)
		if r.Degree(u) != 1 || !hasEdge(r, u, u+1) {
			t.Fatalf("vertex %d: Degree %d, edge present %v", u, r.Degree(u), hasEdge(r, u, u+1))
		}
	}
}
