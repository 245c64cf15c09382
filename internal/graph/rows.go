package graph

import (
	"math"
	"math/bits"
	"unsafe"
)

// Rows is the module's adjacency store: every vertex's neighbors are kept in
// one row sorted by neighbor ID, beside an optional parallel column of
// per-edge payloads of type P (the sampled reservoir's *reservoir.Item;
// struct{} for AdjSet, which keeps no payload and so no column). Membership
// is a binary search and common-neighborhood enumeration a linear merge of
// two sorted rows, with no hash probe on the counting hot path. Rows
// implements pattern.IntersectView; payloads reach enumeration as P, or as
// nil when P is zero-size. The store never reads a payload. The zero value
// is an empty store.
//
// The caller keeps the store simple: Link an edge only when it is absent and
// Unlink it only when present. A self-loop is stored as two entries in its
// vertex's row.
type Rows[P any] struct {
	// rows holds one header per vertex that currently has edges, so the pool
	// holds at most 2 per edge however large the vertex IDs are. A vertex
	// whose degree drops to zero hands its header back through freeRows; a
	// free header has n = 0.
	rows     []row
	freeRows []uint32
	// vs and ps are the adjacency arena: two parallel slabs sharing one
	// offset space, in which every row owns one block of a power-of-two
	// class. Free blocks are chained per class through their first vs slot
	// (1 + the next block's offset, 0 ending the chain), starting at
	// freeHead[class]; freeSlots counts the slots they hold. See linkAt for
	// how rows move between classes and compact for the fragmentation bound.
	vs        []VertexID
	ps        []P
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
	adjFar map[VertexID]uint32
	// edges counts the stored edges; expect is the edge count the slabs'
	// first growth is sized for (see Expect).
	edges, expect int
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

// searchAdj returns the smallest index i with vs[i] >= v, i.e. the position
// where v is or would be inserted.
func searchAdj(vs []VertexID, v VertexID) int {
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

// payload returns p as an enumeration payload: nil for a zero-size P, so a
// store without a payload column reports nil payloads. Payloads are
// pointer-shaped or zero-size, so the conversion never allocates.
func payload[P any](p P) any {
	if unsafe.Sizeof(p) == 0 {
		return nil
	}
	return p
}

// Expect sizes the slabs' first growth for a store of the given number of
// edges (a reservoir's capacity), so a sample filling up to it copies its
// rows at most once on the way. It allocates nothing itself.
func (s *Rows[P]) Expect(edges int) { s.expect = edges }

// Len returns the number of stored edges.
func (s *Rows[P]) Len() int { return s.edges }

// slot returns u's index entry: 1 + its pool row, or 0 for degree zero.
func (s *Rows[P]) slot(u VertexID) uint32 {
	if int(u) < len(s.adjIdx) {
		return s.adjIdx[u]
	}
	if int(u) < maxMarkID {
		return 0
	}
	return s.adjFar[u]
}

// row returns u's row: its neighbor IDs and their payloads, empty for degree
// zero. The slices are valid until the next mutation of the store.
func (s *Rows[P]) row(u VertexID) ([]VertexID, []P) {
	if sl := s.slot(u); sl != 0 {
		h := s.rows[sl-1]
		return s.vs[h.off : h.off+h.n], s.ps[h.off : h.off+h.n]
	}
	return nil, nil
}

// setSlot points u's index entry at sl, growing the dense index or falling
// back to the sparse map for IDs beyond the dense range; sl = 0 unlinks u.
func (s *Rows[P]) setSlot(u VertexID, sl uint32) {
	if int(u) >= maxMarkID {
		if sl == 0 {
			delete(s.adjFar, u)
			return
		}
		if s.adjFar == nil {
			s.adjFar = make(map[VertexID]uint32)
		}
		s.adjFar[u] = sl
		return
	}
	if int(u) >= len(s.adjIdx) {
		// Amortized doubling: streams tend to introduce vertex IDs in
		// ascending order, and exact-size growth would recopy the whole
		// index on every new vertex (O(V^2) on vertex-heavy streams).
		n := int(u) + 1
		if c := 2 * len(s.adjIdx); c > n {
			n = c
		}
		if n > maxMarkID {
			n = maxMarkID
		}
		grown := make([]uint32, n)
		copy(grown, s.adjIdx)
		s.adjIdx = grown
	}
	s.adjIdx[u] = sl
}

// rowFor returns u's row header, claiming one (recycled if possible) with
// n = 0 and no block yet for a vertex of degree zero. The pointer is valid
// until the next rowFor.
func (s *Rows[P]) rowFor(u VertexID) *row {
	sl := s.slot(u)
	if sl == 0 {
		if n := len(s.freeRows); n > 0 {
			sl = s.freeRows[n-1]
			s.freeRows = s.freeRows[:n-1]
		} else {
			s.rows = append(s.rows, row{})
			sl = uint32(len(s.rows))
		}
		s.setSlot(u, sl)
	}
	return &s.rows[sl-1]
}

// allocBlock returns the offset of a free block of class c: the head of the
// class's free list, or fresh slots at the arena's end. When the slabs are
// full and a sixteenth of the arena sits in stranded free blocks, it compacts
// instead of growing, so the slabs' capacity tracks the live blocks rather
// than the fragmentation; callers read their row's offset after the call.
func (s *Rows[P]) allocBlock(c int) uint32 {
	if head := s.freeHead[c]; head != 0 {
		off := head - 1
		s.freeHead[c] = uint32(s.vs[off])
		s.freeSlots -= 1 << c
		return off
	}
	off, size := len(s.vs), 1<<c
	if off+size > cap(s.vs) {
		if s.freeSlots > 0 && s.freeSlots >= off/16 {
			s.compactNow()
			off = len(s.vs)
		}
		if off+size > cap(s.vs) {
			s.growSlabs(size)
		}
	}
	s.vs = s.vs[:off+size]
	s.ps = s.ps[:off+size]
	return uint32(off)
}

// growSlabs reallocates both slabs with room for at least need more slots.
// The first growth sizes them for the expected edges' entries; rows rounded
// up to their block class and stranded free blocks grow them by a quarter at
// a time after that.
func (s *Rows[P]) growSlabs(need int) {
	n := len(s.vs)
	if n+need > math.MaxUint32 {
		panic("graph: adjacency arena exceeds 2^32 slots")
	}
	grown := max(n+need, n+n/4, 2*s.expect)
	vs := make([]VertexID, n, grown)
	ps := make([]P, n, grown)
	copy(vs, s.vs)
	copy(ps, s.ps)
	s.vs, s.ps = vs, ps
}

// freeBlock pushes the class-c block at off onto its free list, clearing its
// payload slots so the arena pins nothing a caller has let go of.
func (s *Rows[P]) freeBlock(off uint32, c int) {
	clear(s.ps[off : off+1<<c])
	s.vs[off] = VertexID(s.freeHead[c])
	s.freeHead[c] = off + 1
	s.freeSlots += 1 << c
}

// compactSlack is the number of free arena slots compact tolerates beyond
// the fragmentation bound, so small stores do not compact on every handful
// of frees.
const compactSlack = 64

// compact bounds the arena's fragmentation. Blocks are never split or
// merged, so a vertex that grows and drains, or a mass deletion, can strand
// free blocks of classes no row needs. Once free slots exceed the live
// entries (2 per stored edge) by more than compactSlack, compactNow slides
// every live block down over the gaps, in place. A live block is under twice
// its row's length, so the arena holds fewer than 3 slots per live entry plus
// compactSlack, and a compaction costs no more than the frees that triggered
// it. The slabs keep their capacity, so a refill after a mass deletion
// allocates nothing.
func (s *Rows[P]) compact() {
	if s.freeSlots > 2*s.edges+compactSlack {
		s.compactNow()
	}
}

// freeTag marks the first vs slot of a class-c free block as ^c during
// compactNow, and a live block's first slot holds its header's 1-based index
// in the pool: the pool has fewer headers than the arena has slots, so the
// two never meet.
func freeTag(c int) VertexID { return ^VertexID(c) }

// compactNow slides every live block down over the free ones; see compact.
// The arena walk needs each block's size and, for a live block, its header,
// and the store keeps neither beside the block. So it first writes them in:
// each free block's first slot gets its class's freeTag, and each live row
// parks its first neighbor ID in its header's offset (which the walk
// rewrites anyway) and puts the header's index in that slot.
func (s *Rows[P]) compactNow() {
	for c, head := range s.freeHead {
		for head != 0 {
			off := head - 1
			head = uint32(s.vs[off])
			s.vs[off] = freeTag(c)
		}
	}
	for i := range s.rows {
		if h := &s.rows[i]; h.n != 0 {
			s.vs[h.off], h.off = VertexID(i+1), uint32(s.vs[h.off])
		}
	}
	at := uint32(0)
	for off := uint32(0); off < uint32(len(s.vs)); {
		tag := s.vs[off]
		if tag > VertexID(len(s.rows)) {
			off += 1 << int(^tag)
			continue
		}
		h := &s.rows[tag-1]
		s.vs[off] = VertexID(h.off)
		size := uint32(1) << blockClass(h.n)
		if at != off {
			copy(s.vs[at:at+h.n], s.vs[off:off+h.n])
			copy(s.ps[at:at+h.n], s.ps[off:off+h.n])
			clear(s.ps[at+h.n : at+size])
		}
		h.off = at
		at += size
		off += size
	}
	clear(s.ps[at:])
	s.vs, s.ps = s.vs[:at], s.ps[:at]
	s.freeHead = [len(s.freeHead)]uint32{}
	s.freeSlots = 0
}

// ForEachVertex calls fn for every vertex that currently has edges, in no
// particular order.
func (s *Rows[P]) ForEachVertex(fn func(u VertexID)) {
	for u, sl := range s.adjIdx {
		if sl != 0 {
			fn(VertexID(u))
		}
	}
	for u := range s.adjFar {
		fn(u)
	}
}

// Degree implements pattern.ItemView: the number of neighbors of u.
func (s *Rows[P]) Degree(u VertexID) int {
	if sl := s.slot(u); sl != 0 {
		return int(s.rows[sl-1].n)
	}
	return 0
}

// Find returns the payload of edge {u, v} and whether it is stored, by
// binary-searching the shorter of the two rows.
func (s *Rows[P]) Find(u, v VertexID) (P, bool) {
	vs, ps := s.row(u)
	if ovs, ops := s.row(v); len(ovs) < len(vs) {
		vs, ps, v = ovs, ops, u
	}
	i := searchAdj(vs, v)
	if i < len(vs) && vs[i] == v {
		return ps[i], true
	}
	var zero P
	return zero, false
}

// Link stores edge e with payload p. The edge must be absent.
func (s *Rows[P]) Link(e Edge, p P) {
	s.linkAt(e.U, e.V, p)
	s.linkAt(e.V, e.U, p)
	s.edges++
	s.compact()
}

// Unlink removes edge e. The edge must be present.
func (s *Rows[P]) Unlink(e Edge) {
	s.unlinkAt(e.U, e.V)
	s.unlinkAt(e.V, e.U)
	s.edges--
	s.compact()
}

// linkAt inserts neighbor v (with its payload) into u's sorted row. A row
// whose block is full (its length a power of two, or zero for a new row)
// moves to a block of the next class, opening the gap during the copy;
// otherwise the tail shifts up within the block.
func (s *Rows[P]) linkAt(u, v VertexID, p P) {
	h := s.rowFor(u)
	n := h.n
	if n&(n-1) != 0 {
		off := h.off
		i := off + uint32(searchAdj(s.vs[off:off+n], v))
		copy(s.vs[i+1:off+n+1], s.vs[i:off+n])
		copy(s.ps[i+1:off+n+1], s.ps[i:off+n])
		s.vs[i], s.ps[i] = v, p
		h.n = n + 1
		return
	}
	// allocBlock may compact the arena, moving this row: read its offset
	// after the call.
	dst := s.allocBlock(blockClass(n + 1))
	off := h.off
	i := uint32(searchAdj(s.vs[off:off+n], v))
	s.moveEntries(dst, off, i)
	s.moveEntries(dst+i+1, off+i, n-i)
	s.vs[dst+i], s.ps[dst+i] = v, p
	if n > 0 {
		s.freeBlock(off, blockClass(n))
	}
	h.off, h.n = dst, n+1
}

// moveEntries copies n arena entries from offset src to offset dst, in
// another block. It loops rather than calling copy: a moving row holds a
// handful of entries on a sparse sample, where two runtime copy calls, one
// of them a pointer copy with its write-barrier bookkeeping, cost more than
// the move itself.
func (s *Rows[P]) moveEntries(dst, src, n uint32) {
	vs, ps := s.vs[dst:dst+n], s.ps[dst:dst+n]
	svs, sps := s.vs[src:src+n], s.ps[src:src+n]
	for k := range vs {
		vs[k], ps[k] = svs[k], sps[k]
	}
}

// unlinkAt removes neighbor v from u's sorted row. (A self-loop's two
// entries are identical, so either may go.) A row whose new length is a
// power of two moves down to a block of that class, closing the gap during
// the copy, so every block stays the smallest class that holds its row; a
// row left empty returns its block and its header to the free lists.
func (s *Rows[P]) unlinkAt(u, v VertexID) {
	sl := s.slot(u)
	h := &s.rows[sl-1]
	n := h.n
	last := n - 1
	if last == 0 {
		s.freeBlock(h.off, 0)
		*h = row{}
		s.freeRows = append(s.freeRows, sl)
		s.setSlot(u, 0)
		return
	}
	var dst uint32
	shrink := last&(last-1) == 0
	if shrink {
		// May compact the arena, moving this row; see linkAt.
		dst = s.allocBlock(blockClass(last))
	}
	off := h.off
	i := off + uint32(searchAdj(s.vs[off:off+n], v))
	if !shrink {
		copy(s.vs[i:off+last], s.vs[i+1:off+n])
		copy(s.ps[i:off+last], s.ps[i+1:off+n])
		var zero P
		s.ps[off+last] = zero
		h.n = last
		return
	}
	i -= off
	s.moveEntries(dst, off, i)
	s.moveEntries(dst+i, off+i+1, last-i)
	s.freeBlock(off, blockClass(n))
	h.off, h.n = dst, last
}

// ProbeEdge implements pattern.ItemView: Find with the payload as an any.
func (s *Rows[P]) ProbeEdge(u, v VertexID) (any, bool) {
	p, ok := s.Find(u, v)
	if !ok {
		return nil, false
	}
	return payload(p), true
}

// ForEachNeighborItem implements pattern.ItemView: it calls fn for each
// neighbor of u in ascending ID order, with the edge's payload, until fn
// returns false. fn must not mutate the store.
func (s *Rows[P]) ForEachNeighborItem(u VertexID, fn func(v VertexID, payload any) bool) {
	vs, ps := s.row(u)
	for i, v := range vs {
		if !fn(v, payload(ps[i])) {
			return
		}
	}
}

// ForEachCommonItem implements pattern.IntersectView: it enumerates the
// common neighbors of a and b in ascending vertex-ID order by merging the two
// sorted rows, yielding both incident payloads per common neighbor. Vertices
// a and b themselves are excluded. fn must not mutate the store.
func (s *Rows[P]) ForEachCommonItem(a, b VertexID, fn func(w VertexID, payA, payB any) bool) {
	va, pa := s.row(a)
	vb, pb := s.row(b)
	swapped := false
	if len(vb) < len(va) {
		va, pa, vb, pb = vb, pb, va, pa
		swapped = true
	}
	if len(va) == 0 {
		return
	}
	emit := func(w VertexID, ea, eb P) bool {
		if w == a || w == b {
			return true
		}
		if swapped {
			ea, eb = eb, ea
		}
		return fn(w, payload(ea), payload(eb))
	}
	if len(vb) > probeRatio*len(va) {
		// Probe mode: binary-search the long row for each short-row entry.
		for i, v := range va {
			j := searchAdj(vb, v)
			if j < len(vb) && vb[j] == v {
				if !emit(v, pa[i], pb[j]) {
					return
				}
			}
		}
		return
	}
	i, j := 0, 0
	for i < len(va) && j < len(vb) {
		x, y := va[i], vb[j]
		switch {
		case x < y:
			i++
		case y < x:
			j++
		default:
			if !emit(x, pa[i], pb[j]) {
				return
			}
			i++
			j++
		}
	}
}

// ForEachAdjacentIn implements pattern.IntersectView: among the sorted
// candidate IDs cands[from:], it enumerates those adjacent to u in ascending
// order, calling fn with the candidate's index and the connecting edge's
// payload. fn must not mutate the store.
func (s *Rows[P]) ForEachAdjacentIn(u VertexID, cands []VertexID, from int, fn func(j int, payload any) bool) {
	vs, ps := s.row(u)
	forEachAdjacentIn(vs, ps, cands, from, fn)
}

// forEachAdjacentIn intersects the sorted row (vs, ps) with the sorted
// candidate suffix cands[from:], calling fn(j, payload) for each candidate
// index j whose vertex is in the row.
func forEachAdjacentIn[P any](vs []VertexID, ps []P, cands []VertexID, from int, fn func(j int, payload any) bool) {
	n := len(cands)
	if from >= n || len(vs) == 0 {
		return
	}
	if len(vs) > probeRatio*(n-from) {
		// Probe mode: few candidates against a long row.
		for j := from; j < n; j++ {
			i := searchAdj(vs, cands[j])
			if i < len(vs) && vs[i] == cands[j] {
				if !fn(j, payload(ps[i])) {
					return
				}
			}
		}
		return
	}
	i, j := searchAdj(vs, cands[from]), from
	for i < len(vs) && j < n {
		v, w := vs[i], cands[j]
		switch {
		case v < w:
			i++
		case w < v:
			j++
		default:
			if !fn(j, payload(ps[i])) {
				return
			}
			i++
			j++
		}
	}
}

// probeRatio is the row-length ratio beyond which the intersection helpers
// switch from a linear two-pointer merge to binary-probing the longer row
// for each element of the shorter one (galloping degenerate case: a handful
// of candidates against a high-degree vertex).
const probeRatio = 8

// maxMarkID bounds the vertex IDs the mark-array fast path (and the dense
// vertex index) will store directly: above it (sparse hashed ID spaces)
// ForEachPairAmong reports false and the caller falls back to per-row merge
// intersection, rather than growing a multi-MB scratch array.
const maxMarkID = 1 << 21

// ForEachPairAmong implements pattern.IntersectView: it enumerates every pair
// i < j of the sorted candidate IDs that is connected by a stored edge, in
// ascending (i, j) order, with the connecting edge's payload. It reports
// false — having enumerated nothing — when the candidate IDs are outside the
// mark array's range; callers then intersect row by row via
// ForEachAdjacentIn, which enumerates the same pairs in the same order.
//
// It marks each candidate's index in the epoch-stamped scratch, then walks
// each candidate's row once: a neighbor is classified as a later candidate
// (index j > i) with a single array load, replacing the per-row merge's
// compare-advance loop. Rows are walked in candidate order and each row
// ascends by neighbor ID, so pairs arrive exactly as the merge-based
// fallback would emit them.
func (s *Rows[P]) ForEachPairAmong(cands []VertexID, fn func(i, j int, payload any) bool) bool {
	n := len(cands)
	if n < 2 {
		return true
	}
	if int(cands[n-1]) >= maxMarkID {
		return false
	}
	if int(cands[n-1]) >= len(s.marks) {
		s.marks = append(s.marks, make([]uint64, int(cands[n-1])+1-len(s.marks))...)
	}
	s.markEpoch++
	if s.markEpoch == 0 {
		clear(s.marks)
		s.markEpoch = 1
	}
	tag := uint64(s.markEpoch) << 32
	for j, v := range cands {
		s.marks[v] = tag | uint64(j)
	}
	marks := s.marks
	for i := 0; i+1 < n; i++ {
		vs, ps := s.row(cands[i])
		if len(vs) > probeRatio*(n-i) {
			// Degenerate high-degree row: probing the few remaining
			// candidates beats walking the whole row.
			stop := false
			forEachAdjacentIn(vs, ps, cands, i+1, func(j int, payload any) bool {
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
		k := searchAdj(vs, cands[i]+1)
		vs, ps = vs[k:], ps[k:]
		// Stale marks carry an older (smaller) epoch, so a single compare
		// against tag|i classifies each neighbor: m > tagI holds exactly
		// for candidates marked this call with index j > i.
		tagI := tag | uint64(i)
		for idx, v := range vs {
			if int(v) >= len(marks) {
				// Neighbor above the largest candidate ID: never a match.
				continue
			}
			if m := marks[v]; m > tagI {
				if !fn(i, int(uint32(m)), payload(ps[idx])) {
					return true
				}
			}
		}
	}
	return true
}
