package reservoir

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// checkInvariants verifies every structural invariant of the reservoir after
// an operation:
//
//   - min-heap order on ranks, with every item's heapIdx matching its slot
//   - every heap item is reachable through Get (the sorted-adjacency index)
//   - the adjacency lists mirror the edge set: each list is sorted ascending
//     by neighbor ID (a self-loop's two entries tie), each entry points at a
//     live heap item for exactly that edge, and no list holds anything else
//   - the per-vertex tagged counts match a recount of DEL-tagged entries
//   - size never exceeds capacity
func checkInvariants(t *testing.T, r *Reservoir) {
	t.Helper()
	if r.Len() > r.Cap() {
		t.Fatalf("len %d exceeds capacity %d", r.Len(), r.Cap())
	}
	for i, it := range r.heap {
		if it.heapIdx != i {
			t.Fatalf("heap[%d].heapIdx = %d", i, it.heapIdx)
		}
		if parent := (i - 1) / 2; i > 0 && r.heap[parent].Rank > it.Rank {
			t.Fatalf("heap order violated at %d: parent rank %v > %v", i, r.heap[parent].Rank, it.Rank)
		}
		got, ok := r.Get(it.Edge)
		if !ok || got != it {
			t.Fatalf("heap item %v not reachable via Get", it.Edge)
		}
	}
	entries := 0
	taggedCount := map[graph.VertexID]int{}
	forEachRow(r, func(u graph.VertexID, vs []graph.VertexID, its []*Item) {
		if len(vs) == 0 {
			t.Fatalf("vertex %d kept with empty adjacency", u)
		}
		entries += len(vs)
		for i, v := range vs {
			it := its[i]
			if it == nil {
				t.Fatalf("adj[%d][%d] has nil item", u, i)
			}
			// Strictly ascending, except that a self-loop holds two entries
			// for one item.
			if i > 0 && vs[i-1] >= v && !(vs[i-1] == v && v == u && its[i-1] == it) {
				t.Fatalf("adj[%d] not strictly sorted at %d: %d then %d", u, i, vs[i-1], v)
			}
			if it.Edge != graph.NewEdge(u, v) {
				t.Fatalf("adj[%d][%d] points at item %v, want edge {%d,%d}", u, i, it.Edge, u, v)
			}
			if it.heapIdx >= len(r.heap) || r.heap[it.heapIdx] != it {
				t.Fatalf("adj[%d][%d] points at an item no longer in the heap", u, i)
			}
			if it.Deleted {
				taggedCount[u]++
			}
		}
	})
	if entries != 2*len(r.heap) {
		t.Fatalf("adjacency holds %d entries for %d items", entries, len(r.heap))
	}
	// The incremental tagged counts agree with a full recount, with no stale
	// zero entries kept alive.
	for u, n := range taggedCount {
		if r.tagged[u] != n {
			t.Fatalf("tagged[%d] = %d, recount %d", u, r.tagged[u], n)
		}
	}
	for u, n := range r.tagged {
		if n == 0 || taggedCount[u] != n {
			t.Fatalf("tagged[%d] = %d, recount %d", u, n, taggedCount[u])
		}
	}
	// Degree and the live view's degree agree with the adjacency they report.
	forEachRow(r, func(u graph.VertexID, vs []graph.VertexID, _ []*Item) {
		if r.Degree(u) != len(vs) {
			t.Fatalf("Degree(%d) = %d, adjacency has %d", u, r.Degree(u), len(vs))
		}
		if want := len(vs) - taggedCount[u]; r.Live().Degree(u) != want {
			t.Fatalf("live Degree(%d) = %d, want %d", u, r.Live().Degree(u), want)
		}
	})
}

// forEachRow calls fn with every vertex's row, in row order, read through
// the store's walks.
func forEachRow(r *Reservoir, fn func(u graph.VertexID, vs []graph.VertexID, its []*Item)) {
	r.adj.ForEachVertex(func(u graph.VertexID) {
		vs, its := rowOf(r, u)
		fn(u, vs, its)
	})
}

// rowOf returns u's neighbors and their items, in row order.
func rowOf(r *Reservoir, u graph.VertexID) (vs []graph.VertexID, its []*Item) {
	r.ForEachNeighborItem(u, func(v graph.VertexID, p any) bool {
		vs, its = append(vs, v), append(its, p.(*Item))
		return true
	})
	return vs, its
}

// hasEdge reports whether view v holds the edge {a, b}.
func hasEdge(v interface {
	ProbeEdge(a, b graph.VertexID) (any, bool)
}, a, b graph.VertexID) bool {
	_, ok := v.ProbeEdge(a, b)
	return ok
}

// TestPropertyRandomOps drives the reservoir through random
// insert/delete/evict/threshold sequences — the exact op mix the WSD and GPS
// samplers generate — checking every invariant after every operation and
// cross-checking membership and min-rank against a naive model.
func TestPropertyRandomOps(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		const cap = 48
		r := New(cap)
		model := map[graph.Edge]float64{} // edge -> rank

		randomEdge := func() graph.Edge {
			for {
				e := graph.NewEdge(graph.VertexID(rng.Intn(24)), graph.VertexID(rng.Intn(24)))
				if !e.IsLoop() {
					return e
				}
			}
		}
		modelMin := func() (graph.Edge, float64, bool) {
			var (
				minE  graph.Edge
				minR  float64
				found bool
			)
			for e, rank := range model {
				if !found || rank < minR {
					minE, minR, found = e, rank, true
				}
			}
			return minE, minR, found
		}

		for op := 0; op < 4000; op++ {
			switch k := rng.Intn(10); {
			case k < 5: // insert a new edge if there is room
				e := randomEdge()
				if _, ok := model[e]; ok || r.Full() {
					break
				}
				rank := rng.Float64() * 1000
				if k < 3 {
					r.PushValue(e, 1, rank, int64(op))
				} else {
					r.Push(&Item{Edge: e, Weight: 1, Rank: rank, Arrival: int64(op)})
				}
				model[e] = rank
			case k < 8: // delete (sometimes an absent edge: must be a no-op)
				e := randomEdge()
				_, inModel := model[e]
				removed := r.Remove(e)
				if inModel != (removed != nil) {
					t.Fatalf("seed %d op %d: Remove(%v) = %v, model has %v", seed, op, e, removed, inModel)
				}
				delete(model, e)
			default: // evict the minimum (threshold maintenance)
				_, wantRank, want := modelMin()
				got := r.PopMin()
				if want != (got != nil) {
					t.Fatalf("seed %d op %d: PopMin = %v, model non-empty %v", seed, op, got, want)
				}
				if got != nil {
					if got.Rank != wantRank {
						t.Fatalf("seed %d op %d: PopMin rank %v, model min %v", seed, op, got.Rank, wantRank)
					}
					delete(model, got.Edge)
				}
			}
			// Toggle DEL tags on random items so removals and the tagged
			// counts interact the way GPS-A churn drives them.
			if r.Len() > 0 && rng.Intn(4) == 0 {
				it := r.heap[rng.Intn(r.Len())]
				r.SetDeleted(it, !it.Deleted)
			}
			checkInvariants(t, r)

			// Membership and min agree with the model.
			if r.Len() != len(model) {
				t.Fatalf("seed %d op %d: len %d, model %d", seed, op, r.Len(), len(model))
			}
			if min := r.Min(); min != nil {
				if _, ok := model[min.Edge]; !ok {
					t.Fatalf("seed %d op %d: Min edge %v not in model", seed, op, min.Edge)
				}
				_, wantRank, _ := modelMin()
				if min.Rank != wantRank {
					t.Fatalf("seed %d op %d: Min rank %v, model min %v", seed, op, min.Rank, wantRank)
				}
			}
		}

		// Drain completely: every item must come out in nondecreasing rank
		// order with invariants held throughout.
		prev := -1.0
		for r.Len() > 0 {
			it := r.PopMin()
			if it.Rank < prev {
				t.Fatalf("seed %d: drain out of order: %v after %v", seed, it.Rank, prev)
			}
			prev = it.Rank
			checkInvariants(t, r)
		}
	}
}

// TestPropertyViewConsistency checks that the pattern.ItemView surface
// (ProbeEdge, Degree, ForEachNeighborItem) and its payloads stay consistent
// with the stored items under churn.
func TestPropertyViewConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := New(32)
	live := map[graph.Edge]bool{}
	for op := 0; op < 2000; op++ {
		e := graph.NewEdge(graph.VertexID(rng.Intn(12)), graph.VertexID(rng.Intn(12))+1)
		if e.IsLoop() {
			continue
		}
		if live[e] {
			r.Remove(e)
			delete(live, e)
		} else if !r.Full() {
			r.PushValue(e, 1, rng.Float64(), int64(op))
			live[e] = true
		}
		for le := range live {
			p, ok := r.ProbeEdge(le.U, le.V)
			if !ok || p.(*Item).Edge != le {
				t.Fatalf("op %d: ProbeEdge(%v) payload mismatch", op, le)
			}
		}
		// Every neighbor enumeration yields exactly the live incident edges,
		// payloads included.
		seen := 0
		for u := graph.VertexID(0); u <= 12; u++ {
			r.ForEachNeighborItem(u, func(v graph.VertexID, payload any) bool {
				it := payload.(*Item)
				if it.Edge != graph.NewEdge(u, v) || !live[it.Edge] {
					t.Fatalf("op %d: enumeration yielded stale edge %v", op, it.Edge)
				}
				seen++
				return true
			})
		}
		if seen != 2*len(live) {
			t.Fatalf("op %d: enumerated %d half-edges, want %d", op, seen, 2*len(live))
		}
	}
}
