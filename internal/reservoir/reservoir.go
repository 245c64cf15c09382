// Package reservoir implements the fixed-capacity rank-keyed sample storage
// shared by the weighted sampling frameworks (GPS, GPS-A, WSD). It combines a
// min-priority queue on edge ranks (for threshold maintenance and eviction)
// with a sorted adjacency index (for O(log d) membership and merge-style
// common-neighborhood intersection during subgraph counting).
package reservoir

import (
	"fmt"
	"math"
	"math/bits"

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

// Reservoir is a bounded min-priority queue of Items keyed by Rank with a
// sorted adjacency index. Each vertex's incident-edge list is kept ordered by
// neighbor ID, so membership is a binary search and common-neighborhood
// enumeration is a linear merge of two sorted lists — no hash probes on the
// counting hot path. The zero value is not usable; construct with New.
//
// Reservoir implements pattern.IntersectView over all stored items (the WSD
// view). Use Live for the view that excludes DEL-tagged items (the GPS-A
// estimator view).
type Reservoir struct {
	capacity int
	heap     []*Item
	// rows holds one header per vertex that currently has sampled edges, so
	// the pool holds at most 2M rows however large the vertex IDs are. A
	// vertex whose degree drops to zero hands its header back through
	// freeRows; a free header has n = 0.
	rows     []row
	freeRows []uint32
	// vs and its are the adjacency arena: two parallel slabs sharing one
	// offset space, in which every row owns one block of a power-of-two
	// class. Free blocks are chained per class through their first vs slot
	// (1 + the next block's offset, 0 ending the chain), starting at
	// freeHead[class]; freeSlots counts the slots they hold. See linkAt for
	// how rows move between classes and compact for the fragmentation bound.
	vs        []graph.VertexID
	its       []*Item
	freeHead  [33]uint32
	freeSlots int
	// adjIdx maps each vertex ID below maxMarkID — the same dense-ID
	// assumption the mark array makes — to 1 + its row in the pool, 0 meaning
	// degree zero: 4 bytes per ID, so a degree-0 lookup touches only this
	// small array and the intersection loops reach a row with one bounds
	// check instead of a hash probe. It grows to the largest linked ID.
	// Vertices with larger (sparse, hashed) IDs are indexed by the adjFar map
	// instead, with the same encoding.
	adjIdx []uint32
	adjFar map[graph.VertexID]uint32
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
	// marks is the epoch-stamped scratch behind ForEachPairAmong: marks[v]
	// holds markEpoch<<32|index while v is a candidate of the current call, so
	// an adjacency walk classifies each neighbor with one array load instead
	// of a merge step. Stale entries are invalidated by bumping the epoch;
	// the array only grows to the largest candidate ID seen (the fast path
	// declines IDs above maxMarkID rather than allocate unboundedly).
	marks     []uint64
	markEpoch uint32
}

// row is one vertex's adjacency header: its n entries sit at arena offsets
// [off, off+n), sorted ascending by neighbor ID. The block behind them is
// always of class blockClass(n), the smallest power of two that holds n, so
// the header carries no capacity of its own.
type row struct {
	off, n uint32
}

// blockClass returns the class of the smallest power-of-two block that holds
// n >= 1 entries: a class-c block has 1<<c slots.
func blockClass(n uint32) int { return bits.Len32(n - 1) }

// adjList is a view of one vertex's row in the arena: two parallel slices
// sorted ascending by neighbor ID (structure-of-arrays layout), so the merge
// and mark-walk loops scan the 4-byte IDs at full cache-line density and load
// the corresponding *Item only on a match. A view is valid until the next
// mutation of the reservoir.
type adjList struct {
	vs  []graph.VertexID
	its []*Item
}

// searchAdj returns the smallest index i with vs[i] >= v, i.e. the position
// where v is or would be inserted.
func searchAdj(vs []graph.VertexID, v graph.VertexID) int {
	lo, hi := 0, len(vs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if vs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// New returns an empty reservoir with the given capacity M. It panics if
// capacity < 1; the callers validate user-facing configuration.
func New(capacity int) *Reservoir {
	if capacity < 1 {
		panic(fmt.Sprintf("reservoir: capacity must be >= 1, got %d", capacity))
	}
	return &Reservoir{
		capacity: capacity,
		heap:     make([]*Item, 0, capacity),
		tagged:   make(map[graph.VertexID]int),
	}
}

// slot returns u's index entry: 1 + its pool row, or 0 for degree zero.
func (r *Reservoir) slot(u graph.VertexID) uint32 {
	if int(u) < len(r.adjIdx) {
		return r.adjIdx[u]
	}
	if int(u) < maxMarkID {
		return 0
	}
	return r.adjFar[u]
}

// list returns u's adjacency list (empty for degree zero).
func (r *Reservoir) list(u graph.VertexID) adjList {
	if s := r.slot(u); s != 0 {
		h := r.rows[s-1]
		return adjList{vs: r.vs[h.off : h.off+h.n], its: r.its[h.off : h.off+h.n]}
	}
	return adjList{}
}

// setSlot points u's index entry at s, growing the dense index or falling
// back to the sparse map for IDs beyond the dense range; s = 0 unlinks u.
func (r *Reservoir) setSlot(u graph.VertexID, s uint32) {
	if int(u) >= maxMarkID {
		if s == 0 {
			delete(r.adjFar, u)
			return
		}
		if r.adjFar == nil {
			r.adjFar = make(map[graph.VertexID]uint32)
		}
		r.adjFar[u] = s
		return
	}
	if int(u) >= len(r.adjIdx) {
		// Amortized doubling: streams tend to introduce vertex IDs in
		// ascending order, and exact-size growth would recopy the whole
		// index on every new vertex (O(V^2) on vertex-heavy streams).
		n := int(u) + 1
		if c := 2 * len(r.adjIdx); c > n {
			n = c
		}
		if n > maxMarkID {
			n = maxMarkID
		}
		grown := make([]uint32, n)
		copy(grown, r.adjIdx)
		r.adjIdx = grown
	}
	r.adjIdx[u] = s
}

// rowFor returns u's row header, claiming one (recycled if possible) with
// n = 0 and no block yet for a vertex of degree zero. The pointer is valid
// until the next rowFor.
func (r *Reservoir) rowFor(u graph.VertexID) *row {
	s := r.slot(u)
	if s == 0 {
		if n := len(r.freeRows); n > 0 {
			s = r.freeRows[n-1]
			r.freeRows = r.freeRows[:n-1]
		} else {
			r.rows = append(r.rows, row{})
			s = uint32(len(r.rows))
		}
		r.setSlot(u, s)
	}
	return &r.rows[s-1]
}

// allocBlock returns the offset of a free block of class c: the head of the
// class's free list, or fresh slots at the arena's end. When the slabs are
// full and a sixteenth of the arena sits in stranded free blocks, it compacts
// instead of growing, so the slabs' capacity tracks the live blocks rather
// than the fragmentation; callers read their row's offset after the call.
func (r *Reservoir) allocBlock(c int) uint32 {
	if head := r.freeHead[c]; head != 0 {
		off := head - 1
		r.freeHead[c] = uint32(r.vs[off])
		r.freeSlots -= 1 << c
		return off
	}
	off, size := len(r.vs), 1<<c
	if off+size > cap(r.vs) {
		if r.freeSlots > 0 && r.freeSlots >= off/16 {
			r.compactNow()
			off = len(r.vs)
		}
		if off+size > cap(r.vs) {
			r.growSlabs(size)
		}
	}
	r.vs = r.vs[:off+size]
	r.its = r.its[:off+size]
	return uint32(off)
}

// growSlabs reallocates both slabs with room for at least need more slots.
// The first growth sizes them for a full sample's 2M entries; rows rounded
// up to their block class and stranded free blocks grow them by a quarter at
// a time after that.
func (r *Reservoir) growSlabs(need int) {
	n := len(r.vs)
	if n+need > math.MaxUint32 {
		panic("reservoir: adjacency arena exceeds 2^32 slots")
	}
	grown := max(n+need, n+n/4, 2*r.capacity)
	vs := make([]graph.VertexID, n, grown)
	its := make([]*Item, n, grown)
	copy(vs, r.vs)
	copy(its, r.its)
	r.vs, r.its = vs, its
}

// freeBlock pushes the class-c block at off onto its free list. Its item
// slots are cleared, so the arena pins no recycled Items, except the first,
// which holds the class's freeMark so compact can step over the block.
func (r *Reservoir) freeBlock(off uint32, c int) {
	if c > 0 {
		clear(r.its[off+1 : off+1<<c])
	}
	r.its[off] = &freeMark[c]
	r.vs[off] = graph.VertexID(r.freeHead[c])
	r.freeHead[c] = off + 1
	r.freeSlots += 1 << c
}

// freeMark[c] is the sentinel in the first its slot of every free class-c
// block: its heapIdx, -1-c, tells the block from a live row's first entry,
// whose item always has a heap index >= 0.
var freeMark = func() (m [33]Item) {
	for c := range m {
		m[c].heapIdx = -1 - c
	}
	return m
}()

// compactSlack is the number of free arena slots compact tolerates beyond
// the fragmentation bound, so small reservoirs do not compact on every
// handful of frees.
const compactSlack = 64

// compact bounds the arena's fragmentation. Blocks are never split or
// merged, so a vertex that grows and drains, or a mass deletion, can strand
// free blocks of classes no row needs. Once free slots exceed the live
// entries (2 per stored item) by more than compactSlack, compact walks the
// arena block by block — a free block is known by its freeMark, a live one
// leads through its first entry to its owner's header — and slides every
// live block down over the gaps, in place. A live block is under twice its
// row's length, so the arena holds fewer than 3 slots per live entry plus
// compactSlack, and a compaction costs no more than the frees that
// triggered it. The slabs keep their capacity, so a refill after a mass
// deletion allocates nothing.
func (r *Reservoir) compact() {
	if r.freeSlots > 2*len(r.heap)+compactSlack {
		r.compactNow()
	}
}

// compactNow slides every live block down over the free ones; see compact.
func (r *Reservoir) compactNow() {
	at := uint32(0)
	for off := uint32(0); off < uint32(len(r.vs)); {
		if first := r.its[off]; first.heapIdx < 0 {
			off += 1 << (-1 - first.heapIdx)
			continue
		}
		h := &r.rows[r.slot(rowOwner(r.vs[off], r.its[off]))-1]
		size := uint32(1) << blockClass(h.n)
		if at != off {
			copy(r.vs[at:at+h.n], r.vs[off:off+h.n])
			copy(r.its[at:at+h.n], r.its[off:off+h.n])
			clear(r.its[at+h.n : at+size])
			h.off = at
		}
		at += size
		off += size
	}
	clear(r.its[at:])
	r.vs, r.its = r.vs[:at], r.its[:at]
	r.freeHead = [len(r.freeHead)]uint32{}
	r.freeSlots = 0
}

// rowOwner returns the vertex whose row holds the entry (v, it): the edge's
// other endpoint.
func rowOwner(v graph.VertexID, it *Item) graph.VertexID {
	if it.Edge.U == v {
		return it.Edge.V
	}
	return it.Edge.U
}

// forEachList calls fn for every vertex that currently has incident edges.
// Diagnostic/test helper, not a hot path.
func (r *Reservoir) forEachList(fn func(u graph.VertexID, l adjList)) {
	for u, s := range r.adjIdx {
		if s != 0 {
			fn(graph.VertexID(u), r.list(graph.VertexID(u)))
		}
	}
	for u := range r.adjFar {
		fn(u, r.list(u))
	}
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
// shorter endpoint's adjacency list.
func (r *Reservoir) Get(e graph.Edge) (*Item, bool) {
	l, target := r.list(e.U), e.V
	if other := r.list(e.V); len(other.vs) < len(l.vs) {
		l, target = other, e.U
	}
	i := searchAdj(l.vs, target)
	if i < len(l.vs) && l.vs[i] == target {
		return l.its[i], true
	}
	return nil, false
}

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
	r.linkAdj(it)
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
	r.unlinkAdj(it)
	if len(r.free) < r.capacity {
		r.free = append(r.free, it)
	}
	return it
}

func (r *Reservoir) linkAdj(it *Item) {
	r.linkAt(it.Edge.U, it.Edge.V, it)
	r.linkAt(it.Edge.V, it.Edge.U, it)
	if it.Deleted {
		r.addTag(it.Edge.U, 1)
		r.addTag(it.Edge.V, 1)
	}
	r.compact()
}

// linkAt inserts neighbor v (with its item) into u's sorted row. A row whose
// block is full (its length a power of two, or zero for a new row) moves to a
// block of the next class, opening the gap during the copy; otherwise the
// tail shifts up within the block.
func (r *Reservoir) linkAt(u, v graph.VertexID, it *Item) {
	h := r.rowFor(u)
	n := h.n
	if n&(n-1) != 0 {
		off := h.off
		i := off + uint32(searchAdj(r.vs[off:off+n], v))
		copy(r.vs[i+1:off+n+1], r.vs[i:off+n])
		copy(r.its[i+1:off+n+1], r.its[i:off+n])
		r.vs[i], r.its[i] = v, it
		h.n = n + 1
		return
	}
	// allocBlock may compact the arena, moving this row: read its offset
	// after the call.
	dst := r.allocBlock(blockClass(n + 1))
	off := h.off
	i := uint32(searchAdj(r.vs[off:off+n], v))
	r.moveEntries(dst, off, i)
	r.moveEntries(dst+i+1, off+i, n-i)
	r.vs[dst+i], r.its[dst+i] = v, it
	if n > 0 {
		r.freeBlock(off, blockClass(n))
	}
	h.off, h.n = dst, n+1
}

// moveEntries copies n arena entries from offset src to offset dst, in
// another block. It loops rather than calling copy: a moving row holds a
// handful of entries on a sparse sample, where two runtime copy calls, one
// of them a pointer copy with its write-barrier bookkeeping, cost more than
// the move itself.
func (r *Reservoir) moveEntries(dst, src, n uint32) {
	vs, its := r.vs[dst:dst+n], r.its[dst:dst+n]
	svs, sits := r.vs[src:src+n], r.its[src:src+n]
	for k := range vs {
		vs[k], its[k] = svs[k], sits[k]
	}
}

func (r *Reservoir) unlinkAdj(it *Item) {
	r.unlinkAt(it.Edge.U, it.Edge.V, it)
	r.unlinkAt(it.Edge.V, it.Edge.U, it)
	if it.Deleted {
		r.addTag(it.Edge.U, -1)
		r.addTag(it.Edge.V, -1)
	}
	r.compact()
}

// unlinkAt removes the entry for item it under neighbor ID v from u's sorted
// row. A row whose new length is a power of two moves down to a block of
// that class, closing the gap during the copy, so every block stays the
// smallest class that holds its row; a row left empty returns its block and
// its header to the free lists.
func (r *Reservoir) unlinkAt(u, v graph.VertexID, it *Item) {
	s := r.slot(u)
	h := &r.rows[s-1]
	n := h.n
	last := n - 1
	if last == 0 {
		r.freeBlock(h.off, 0)
		*h = row{}
		r.freeRows = append(r.freeRows, s)
		r.setSlot(u, 0)
		return
	}
	var dst uint32
	shrink := last&(last-1) == 0
	if shrink {
		// May compact the arena, moving this row; see linkAt.
		dst = r.allocBlock(blockClass(last))
	}
	off := h.off
	i := off + uint32(searchAdj(r.vs[off:off+n], v))
	// A self-loop stores two identical-key entries; advance to the one that
	// holds this item.
	for r.its[i] != it {
		i++
	}
	if !shrink {
		copy(r.vs[i:off+last], r.vs[i+1:off+n])
		copy(r.its[i:off+last], r.its[i+1:off+n])
		r.its[off+last] = nil
		h.n = last
		return
	}
	i -= off
	r.moveEntries(dst, off, i)
	r.moveEntries(dst+i, off+i+1, last-i)
	r.freeBlock(off, blockClass(n))
	h.off, h.n = dst, last
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

// HasEdge reports whether the edge {u, v} is stored.
func (r *Reservoir) HasEdge(u, v graph.VertexID) bool {
	_, ok := r.Get(graph.NewEdge(u, v))
	return ok
}

// Degree implements pattern.ItemView over all stored items.
func (r *Reservoir) Degree(u graph.VertexID) int {
	if s := r.slot(u); s != 0 {
		return int(r.rows[s-1].n)
	}
	return 0
}

// LiveDegree returns the number of non-DEL-tagged edges incident to u.
func (r *Reservoir) LiveDegree(u graph.VertexID) int {
	return r.Degree(u) - r.tagged[u]
}

// ForEachNeighbor calls fn for each stored neighbor of u, until fn returns
// false. Iteration is in ascending neighbor-ID order; fn must not mutate the
// reservoir.
func (r *Reservoir) ForEachNeighbor(u graph.VertexID, fn func(v graph.VertexID) bool) {
	for _, v := range r.list(u).vs {
		if !fn(v) {
			return
		}
	}
}

// ProbeEdge implements pattern.ItemView: HasEdge returning the *Item payload.
func (r *Reservoir) ProbeEdge(u, v graph.VertexID) (any, bool) {
	it, ok := r.Get(graph.NewEdge(u, v))
	if !ok {
		return nil, false
	}
	return it, true
}

// ForEachNeighborItem implements pattern.ItemView; the payload is the edge's
// *Item. fn must not mutate the reservoir.
func (r *Reservoir) ForEachNeighborItem(u graph.VertexID, fn func(v graph.VertexID, payload any) bool) {
	l := r.list(u)
	for i, v := range l.vs {
		if !fn(v, l.its[i]) {
			return
		}
	}
}

// ForEachCommonItem implements pattern.IntersectView: it enumerates the
// common neighbors of a and b in ascending vertex-ID order by merging the two
// sorted adjacency lists, yielding both incident items per common neighbor.
// Vertices a and b themselves are excluded. fn must not mutate the reservoir.
func (r *Reservoir) ForEachCommonItem(a, b graph.VertexID, fn func(w graph.VertexID, payA, payB any) bool) {
	forEachCommon(r.list(a), r.list(b), a, b, false, fn)
}

// ForEachAdjacentIn implements pattern.IntersectView: among the sorted
// candidate IDs cands[from:], it enumerates those adjacent to u in ascending
// order, calling fn with the candidate's index and the connecting edge's
// payload. fn must not mutate the reservoir.
func (r *Reservoir) ForEachAdjacentIn(u graph.VertexID, cands []graph.VertexID, from int, fn func(j int, payload any) bool) {
	forEachAdjacentIn(r.list(u), cands, from, false, fn)
}

// probeRatio is the list-length ratio beyond which the intersection helpers
// switch from a linear two-pointer merge to binary-probing the longer list
// for each element of the shorter one (galloping degenerate case: a handful
// of candidates against a high-degree vertex).
const probeRatio = 8

// maxMarkID bounds the vertex IDs the mark-array fast path (and the dense
// adjacency index) will store directly: above it (sparse hashed ID spaces)
// ForEachPairAmong reports false and the caller falls back to per-row merge
// intersection, rather than growing a multi-MB scratch array.
const maxMarkID = 1 << 21

// ForEachPairAmong implements pattern.IntersectView: it enumerates every pair
// i < j of the sorted candidate IDs that is connected by a stored edge, in
// ascending (i, j) order, with the connecting edge's payload. It reports
// false — having enumerated nothing — when the candidate IDs are outside the
// mark array's range; callers then intersect row by row via ForEachAdjacentIn,
// which enumerates the same pairs in the same order.
func (r *Reservoir) ForEachPairAmong(cands []graph.VertexID, fn func(i, j int, payload any) bool) bool {
	return r.forEachPairAmong(cands, false, fn)
}

// forEachPairAmong marks each candidate's index in the epoch-stamped scratch,
// then walks each candidate's adjacency once: a neighbor is classified as a
// later candidate (index j > i) with a single array load, replacing the
// per-row merge's compare-advance loop. Rows are walked in candidate order
// and each row ascends by neighbor ID, so pairs arrive exactly as the
// merge-based fallback would emit them.
func (r *Reservoir) forEachPairAmong(cands []graph.VertexID, liveOnly bool, fn func(i, j int, payload any) bool) bool {
	n := len(cands)
	if n < 2 {
		return true
	}
	if int(cands[n-1]) >= maxMarkID {
		return false
	}
	if int(cands[n-1]) >= len(r.marks) {
		r.marks = append(r.marks, make([]uint64, int(cands[n-1])+1-len(r.marks))...)
	}
	r.markEpoch++
	if r.markEpoch == 0 {
		clear(r.marks)
		r.markEpoch = 1
	}
	tag := uint64(r.markEpoch) << 32
	for j, v := range cands {
		r.marks[v] = tag | uint64(j)
	}
	marks := r.marks
	for i := 0; i+1 < n; i++ {
		l := r.list(cands[i])
		if len(l.vs) > probeRatio*(n-i) {
			// Degenerate high-degree row: probing the few remaining
			// candidates beats walking the whole adjacency list.
			stop := false
			forEachAdjacentIn(l, cands, i+1, liveOnly, func(j int, payload any) bool {
				stop = !fn(i, j, payload)
				return !stop
			})
			if stop {
				return true
			}
			continue
		}
		// A match has index j > i, hence neighbor ID above cands[i]: skip
		// straight to that suffix of the sorted row.
		k := searchAdj(l.vs, cands[i]+1)
		vs, its := l.vs[k:], l.its[k:]
		// Stale marks carry an older (smaller) epoch, so a single compare
		// against tag|i classifies each neighbor: m > tagI holds exactly
		// for candidates marked this call with index j > i.
		tagI := tag | uint64(i)
		if liveOnly {
			for idx, v := range vs {
				if int(v) >= len(marks) {
					continue
				}
				if m := marks[v]; m > tagI && !its[idx].Deleted {
					if !fn(i, int(uint32(m)), its[idx]) {
						return true
					}
				}
			}
			continue
		}
		for idx, v := range vs {
			if int(v) >= len(marks) {
				// Neighbor above the largest candidate ID: never a match.
				continue
			}
			if m := marks[v]; m > tagI {
				if !fn(i, int(uint32(m)), its[idx]) {
					return true
				}
			}
		}
	}
	return true
}

// forEachCommon merges two sorted adjacency lists, emitting each shared
// neighbor ID with the payload items from la's side and lb's side (in that
// order). With liveOnly set, a match is skipped unless both items are
// untagged.
func forEachCommon(la, lb adjList, a, b graph.VertexID, liveOnly bool, fn func(w graph.VertexID, payA, payB any) bool) {
	swapped := false
	if len(lb.vs) < len(la.vs) {
		la, lb = lb, la
		swapped = true
	}
	if len(la.vs) == 0 {
		return
	}
	emit := func(w graph.VertexID, ea, eb *Item) bool {
		if w == a || w == b {
			return true
		}
		if liveOnly && (ea.Deleted || eb.Deleted) {
			return true
		}
		if swapped {
			ea, eb = eb, ea
		}
		return fn(w, ea, eb)
	}
	if len(lb.vs) > probeRatio*len(la.vs) {
		// Probe mode: binary-search the long list for each short-list entry.
		for i, v := range la.vs {
			j := searchAdj(lb.vs, v)
			if j < len(lb.vs) && lb.vs[j] == v {
				if !emit(v, la.its[i], lb.its[j]) {
					return
				}
			}
		}
		return
	}
	i, j := 0, 0
	for i < len(la.vs) && j < len(lb.vs) {
		va, vb := la.vs[i], lb.vs[j]
		switch {
		case va < vb:
			i++
		case vb < va:
			j++
		default:
			if !emit(va, la.its[i], lb.its[j]) {
				return
			}
			i++
			j++
		}
	}
}

// forEachAdjacentIn intersects a sorted adjacency list with the sorted
// candidate suffix cands[from:], calling fn(j, item) for each candidate index
// j whose vertex is adjacent.
func forEachAdjacentIn(l adjList, cands []graph.VertexID, from int, liveOnly bool, fn func(j int, payload any) bool) {
	n := len(cands)
	if from >= n || len(l.vs) == 0 {
		return
	}
	if len(l.vs) > probeRatio*(n-from) {
		// Probe mode: few candidates against a long list.
		for j := from; j < n; j++ {
			i := searchAdj(l.vs, cands[j])
			if i < len(l.vs) && l.vs[i] == cands[j] {
				it := l.its[i]
				if liveOnly && it.Deleted {
					continue
				}
				if !fn(j, it) {
					return
				}
			}
		}
		return
	}
	i, j := searchAdj(l.vs, cands[from]), from
	for i < len(l.vs) && j < n {
		v, w := l.vs[i], cands[j]
		switch {
		case v < w:
			i++
		case w < v:
			j++
		default:
			it := l.its[i]
			if !(liveOnly && it.Deleted) {
				if !fn(j, it) {
					return
				}
			}
			i++
			j++
		}
	}
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
// DEL-tagged items.
type LiveView struct{ r *Reservoir }

// HasEdge reports whether the edge {u, v} is stored and not DEL-tagged.
func (lv LiveView) HasEdge(u, v graph.VertexID) bool {
	it, ok := lv.r.Get(graph.NewEdge(u, v))
	return ok && !it.Deleted
}

// Degree implements pattern.ItemView. It returns the live (tag-excluded) degree,
// maintained incrementally on SetDeleted, so side selection under deletion
// churn iterates the objectively shorter live neighborhood.
func (lv LiveView) Degree(u graph.VertexID) int { return lv.r.LiveDegree(u) }

// ForEachNeighbor calls fn for each neighbor of u, skipping DEL-tagged edges,
// until fn returns false.
func (lv LiveView) ForEachNeighbor(u graph.VertexID, fn func(v graph.VertexID) bool) {
	l := lv.r.list(u)
	for i, v := range l.vs {
		if l.its[i].Deleted {
			continue
		}
		if !fn(v) {
			return
		}
	}
}

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
	l := lv.r.list(u)
	for i, v := range l.vs {
		if l.its[i].Deleted {
			continue
		}
		if !fn(v, l.its[i]) {
			return
		}
	}
}

// ForEachCommonItem implements pattern.IntersectView over the live items: a
// common neighbor is emitted only when both connecting edges are untagged.
func (lv LiveView) ForEachCommonItem(a, b graph.VertexID, fn func(w graph.VertexID, payA, payB any) bool) {
	forEachCommon(lv.r.list(a), lv.r.list(b), a, b, true, fn)
}

// ForEachAdjacentIn implements pattern.IntersectView over the live items.
func (lv LiveView) ForEachAdjacentIn(u graph.VertexID, cands []graph.VertexID, from int, fn func(j int, payload any) bool) {
	forEachAdjacentIn(lv.r.list(u), cands, from, true, fn)
}

// ForEachPairAmong implements pattern.IntersectView over the live items: a
// pair is emitted only when its connecting edge is untagged.
func (lv LiveView) ForEachPairAmong(cands []graph.VertexID, fn func(i, j int, payload any) bool) bool {
	return lv.r.forEachPairAmong(cands, true, fn)
}
