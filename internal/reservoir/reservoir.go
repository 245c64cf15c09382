// Package reservoir implements the fixed-capacity rank-keyed sample storage
// shared by the weighted sampling frameworks (GPS, GPS-A, WSD). It combines a
// min-priority queue on edge ranks (for threshold maintenance and eviction)
// with the module's sorted-row adjacency store, graph.Rows, holding each
// edge's Item as its payload (for O(log d) membership and merge-style
// common-neighborhood intersection during subgraph counting).
package reservoir

import (
	"fmt"

	"repro/internal/graph"
)

// Item is a sampled edge together with the bookkeeping the weighted samplers
// need: the weight assigned at insertion time, the resulting rank, the
// insertion event index (for the RL temporal state), and the GPS-A lazy
// deletion tag.
type Item struct {
	Edge    graph.Edge
	Weight  float64
	Rank    float64
	Arrival int64 // index t_k of the insertion event that sampled this edge
	// Deleted is the GPS-A "DEL" tag; WSD never sets it. Once the item is
	// stored in a Reservoir, flip it via Reservoir.SetDeleted so the
	// per-vertex live-degree counts stay consistent.
	Deleted bool

	heapIdx int
	// invW caches 1/Weight, maintained by Push: the estimators' inner loops
	// apply the inverse inclusion probability max(1, tau_q/w) once per edge
	// of every completed instance, and a cached reciprocal turns each of
	// those divisions into a multiplication.
	invW float64
}

// InvWeight returns the cached reciprocal 1/Weight. It is only valid for
// items stored in a reservoir (Push computes it).
func (it *Item) InvWeight() float64 { return it.invW }

// Reservoir is a bounded min-priority queue of Items keyed by Rank over a
// graph.Rows adjacency store whose payloads are the Items. Each vertex's
// incident-edge row is kept ordered by neighbor ID, so membership is a
// binary search and common-neighborhood enumeration is a linear merge of two
// sorted rows — no hash probes on the counting hot path. The zero value is
// not usable; construct with New.
//
// Reservoir implements pattern.IntersectView over all stored items (the WSD
// view). Use Live for the view that excludes DEL-tagged items (the GPS-A
// estimator view).
type Reservoir struct {
	capacity int
	heap     []*Item
	adj      graph.Rows[*Item]
	// tagged counts, per vertex, the incident edges currently carrying the
	// DEL tag, so LiveView.Degree can report the live degree without a scan.
	// Entries are removed when they reach zero; WSD workloads never populate
	// the map at all.
	tagged map[graph.VertexID]int
	// free recycles removed Item allocations for PushValue, keeping the
	// steady-state sampler loop allocation-free. Bounded by the capacity so
	// even a mass deletion followed by a refill — the deletion-churn shape —
	// recycles every item, while idle memory stays within one reservoir's
	// worth of items.
	free []*Item
	// chunk is the tail of the current PushValue allocation block; see
	// itemChunkSize.
	chunk []Item
}

// New returns an empty reservoir with the given capacity M. It panics if
// capacity < 1; the callers validate user-facing configuration.
func New(capacity int) *Reservoir {
	if capacity < 1 {
		panic(fmt.Sprintf("reservoir: capacity must be >= 1, got %d", capacity))
	}
	r := &Reservoir{
		capacity: capacity,
		heap:     make([]*Item, 0, capacity),
		tagged:   make(map[graph.VertexID]int),
	}
	r.adj.Expect(capacity)
	return r
}

// Len returns the number of stored items, including DEL-tagged ones.
func (r *Reservoir) Len() int { return len(r.heap) }

// Cap returns the capacity M.
func (r *Reservoir) Cap() int { return r.capacity }

// Full reports whether the reservoir holds exactly M items.
func (r *Reservoir) Full() bool { return len(r.heap) >= r.capacity }

// Min returns the item with the minimum rank, or nil if empty.
func (r *Reservoir) Min() *Item {
	if len(r.heap) == 0 {
		return nil
	}
	return r.heap[0]
}

// Get returns the item for edge e, if present, by binary-searching the
// shorter endpoint's adjacency row.
func (r *Reservoir) Get(e graph.Edge) (*Item, bool) { return r.adj.Find(e.U, e.V) }

// Push inserts a new item. It panics if the reservoir is full or already
// contains the edge: both indicate a sampler logic bug, not an input error.
// Either panic leaves the reservoir unchanged.
func (r *Reservoir) Push(it *Item) {
	if r.Full() {
		panic("reservoir: push into full reservoir")
	}
	if _, ok := r.Get(it.Edge); ok {
		panic(fmt.Sprintf("reservoir: duplicate push of edge %v", it.Edge))
	}
	it.invW = 1 / it.Weight
	it.heapIdx = len(r.heap)
	r.heap = append(r.heap, it)
	r.adj.Link(it.Edge, it)
	if it.Deleted {
		r.addTag(it.Edge.U, 1)
		r.addTag(it.Edge.V, 1)
	}
	r.siftUp(it.heapIdx)
}

// PushValue inserts a new item built from the given fields, reusing an
// allocation recycled by a previous removal when one is available — the
// allocation-free fast path for the samplers' evict-then-insert loop. The
// same panics as Push apply.
func (r *Reservoir) PushValue(e graph.Edge, weight, rank float64, arrival int64) *Item {
	var it *Item
	if n := len(r.free); n > 0 {
		it = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		if len(r.chunk) == 0 {
			// Carve fresh items from a block: the fill phase pushes up to M
			// items before the recycler has anything to hand back, and one
			// allocation per block instead of per item keeps that phase from
			// dominating the allocs-per-event accounting.
			r.chunk = make([]Item, itemChunkSize)
		}
		it = &r.chunk[0]
		r.chunk = r.chunk[1:]
	}
	*it = Item{Edge: e, Weight: weight, Rank: rank, Arrival: arrival}
	r.Push(it)
	return it
}

// itemChunkSize is the block size PushValue carves new Items from.
const itemChunkSize = 64

// PopMin removes and returns the minimum-rank item. It returns nil if the
// reservoir is empty. The returned item is only valid until the next
// PushValue, which may recycle its allocation.
func (r *Reservoir) PopMin() *Item {
	if len(r.heap) == 0 {
		return nil
	}
	return r.removeAt(0)
}

// Remove deletes the item for edge e, returning it, or nil if absent. The
// returned item is only valid until the next PushValue, which may recycle its
// allocation.
func (r *Reservoir) Remove(e graph.Edge) *Item {
	it, ok := r.Get(e)
	if !ok {
		return nil
	}
	return r.removeAt(it.heapIdx)
}

// ScaleAll multiplies every stored item's Weight and Rank by c (c > 0) and
// refreshes the cached inverse weights. Scaling by a positive constant
// preserves the rank order, so the heap and the thresholds stay consistent
// as long as the caller scales tau_p/tau_q by the same factor — this is the
// decay mode's renormalization: weights grow as e^(+lambda*t) and are
// periodically rescaled toward 1 before they overflow. Weights are floored
// at a tiny positive value so a long-untouched item's cached 1/Weight can
// never become +Inf.
func (r *Reservoir) ScaleAll(c float64) {
	const minWeight = 1e-300
	for _, it := range r.heap {
		it.Weight *= c
		if it.Weight < minWeight {
			it.Weight = minWeight
		}
		it.Rank *= c
		it.invW = 1 / it.Weight
	}
}

// SetDeleted flips the DEL tag on a stored item, keeping the per-vertex
// live-degree counts consistent. It is a no-op when the tag already has the
// requested value.
func (r *Reservoir) SetDeleted(it *Item, deleted bool) {
	if it.Deleted == deleted {
		return
	}
	it.Deleted = deleted
	d := 1
	if !deleted {
		d = -1
	}
	r.addTag(it.Edge.U, d)
	r.addTag(it.Edge.V, d)
}

func (r *Reservoir) addTag(u graph.VertexID, d int) {
	if n := r.tagged[u] + d; n == 0 {
		delete(r.tagged, u)
	} else {
		r.tagged[u] = n
	}
}

func (r *Reservoir) removeAt(i int) *Item {
	it := r.heap[i]
	last := len(r.heap) - 1
	r.swap(i, last)
	r.heap = r.heap[:last]
	if i < last {
		// Restore heap order for the element moved into slot i.
		if !r.siftDown(i) {
			r.siftUp(i)
		}
	}
	r.adj.Unlink(it.Edge)
	if it.Deleted {
		r.addTag(it.Edge.U, -1)
		r.addTag(it.Edge.V, -1)
	}
	if len(r.free) < r.capacity {
		r.free = append(r.free, it)
	}
	return it
}

func (r *Reservoir) swap(i, j int) {
	r.heap[i], r.heap[j] = r.heap[j], r.heap[i]
	r.heap[i].heapIdx = i
	r.heap[j].heapIdx = j
}

func (r *Reservoir) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if r.heap[parent].Rank <= r.heap[i].Rank {
			return
		}
		r.swap(i, parent)
		i = parent
	}
}

// siftDown restores heap order downward from i, reporting whether any swap
// happened.
func (r *Reservoir) siftDown(i int) bool {
	moved := false
	n := len(r.heap)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && r.heap[left].Rank < r.heap[smallest].Rank {
			smallest = left
		}
		if right < n && r.heap[right].Rank < r.heap[smallest].Rank {
			smallest = right
		}
		if smallest == i {
			return moved
		}
		r.swap(i, smallest)
		i = smallest
		moved = true
	}
}

// Degree implements pattern.ItemView over all stored items.
func (r *Reservoir) Degree(u graph.VertexID) int { return r.adj.Degree(u) }

// ProbeEdge implements pattern.ItemView: Get with the *Item as the payload.
func (r *Reservoir) ProbeEdge(u, v graph.VertexID) (any, bool) { return r.adj.ProbeEdge(u, v) }

// ForEachNeighborItem implements pattern.ItemView in ascending neighbor-ID
// order; the payload is the edge's *Item. fn must not mutate the reservoir.
func (r *Reservoir) ForEachNeighborItem(u graph.VertexID, fn func(v graph.VertexID, payload any) bool) {
	r.adj.ForEachNeighborItem(u, fn)
}

// ForEachCommonItem implements pattern.IntersectView: it enumerates the
// common neighbors of a and b in ascending vertex-ID order, yielding both
// incident items per common neighbor. Vertices a and b themselves are
// excluded. fn must not mutate the reservoir.
func (r *Reservoir) ForEachCommonItem(a, b graph.VertexID, fn func(w graph.VertexID, payA, payB any) bool) {
	r.adj.ForEachCommonItem(a, b, fn)
}

// ForEachAdjacentIn implements pattern.IntersectView: among the sorted
// candidate IDs cands[from:], it enumerates those adjacent to u in ascending
// order, calling fn with the candidate's index and the connecting edge's
// item. fn must not mutate the reservoir.
func (r *Reservoir) ForEachAdjacentIn(u graph.VertexID, cands []graph.VertexID, from int, fn func(j int, payload any) bool) {
	r.adj.ForEachAdjacentIn(u, cands, from, fn)
}

// ForEachPairAmong implements pattern.IntersectView: it enumerates every pair
// i < j of the sorted candidate IDs that is connected by a stored edge, in
// ascending (i, j) order, with the connecting edge's item. It reports false,
// having enumerated nothing, when the IDs are beyond the store's mark array;
// see graph.Rows.ForEachPairAmong.
func (r *Reservoir) ForEachPairAmong(cands []graph.VertexID, fn func(i, j int, payload any) bool) bool {
	return r.adj.ForEachPairAmong(cands, fn)
}

// Items returns all stored items in unspecified order. Intended for tests and
// policy analysis, not hot paths.
func (r *Reservoir) Items() []*Item {
	out := make([]*Item, len(r.heap))
	copy(out, r.heap)
	return out
}

// Live returns a view over the non-DEL-tagged items only. GPS-A enumerates
// subgraphs against this view (Eq. 6: I(e in R \ R_tag)).
func (r *Reservoir) Live() LiveView { return LiveView{r: r} }

// LiveView is a pattern.IntersectView over the reservoir that excludes
// DEL-tagged items. It filters the store's walks through closures that do not
// escape, so enumerating against it allocates nothing.
type LiveView struct{ r *Reservoir }

// live reports whether an enumeration payload is an untagged item.
func live(payload any) bool { return !payload.(*Item).Deleted }

// Degree implements pattern.ItemView. It returns the live (tag-excluded)
// degree, maintained incrementally on SetDeleted, so side selection under
// deletion churn iterates the objectively shorter live neighborhood.
func (lv LiveView) Degree(u graph.VertexID) int { return lv.r.Degree(u) - lv.r.tagged[u] }

// ProbeEdge implements pattern.ItemView over the live items.
func (lv LiveView) ProbeEdge(u, v graph.VertexID) (any, bool) {
	it, ok := lv.r.Get(graph.NewEdge(u, v))
	if !ok || it.Deleted {
		return nil, false
	}
	return it, true
}

// ForEachNeighborItem implements pattern.ItemView, skipping DEL-tagged edges;
// the payload is the edge's *Item.
func (lv LiveView) ForEachNeighborItem(u graph.VertexID, fn func(v graph.VertexID, payload any) bool) {
	lv.r.adj.ForEachNeighborItem(u, func(v graph.VertexID, p any) bool {
		return !live(p) || fn(v, p)
	})
}

// ForEachCommonItem implements pattern.IntersectView over the live items: a
// common neighbor is emitted only when both connecting edges are untagged.
func (lv LiveView) ForEachCommonItem(a, b graph.VertexID, fn func(w graph.VertexID, payA, payB any) bool) {
	lv.r.adj.ForEachCommonItem(a, b, func(w graph.VertexID, pa, pb any) bool {
		return !live(pa) || !live(pb) || fn(w, pa, pb)
	})
}

// ForEachAdjacentIn implements pattern.IntersectView over the live items.
func (lv LiveView) ForEachAdjacentIn(u graph.VertexID, cands []graph.VertexID, from int, fn func(j int, payload any) bool) {
	lv.r.adj.ForEachAdjacentIn(u, cands, from, func(j int, p any) bool {
		return !live(p) || fn(j, p)
	})
}

// ForEachPairAmong implements pattern.IntersectView over the live items: a
// pair is emitted only when its connecting edge is untagged.
func (lv LiveView) ForEachPairAmong(cands []graph.VertexID, fn func(i, j int, payload any) bool) bool {
	return lv.r.adj.ForEachPairAmong(cands, func(i, j int, p any) bool {
		return !live(p) || fn(i, j, p)
	})
}
