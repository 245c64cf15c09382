package window

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// checkTable verifies the edge index's structural invariants against the
// ring it indexes: every occupied slot's low 32 bits are those of a pending
// entry that is not dead, its tag is the seeded hash of that entry's edge, no
// edge is stored twice, the occupied slot count matches n and the ring's
// live entries, the load factor stays at or under 1/2, and every slot is
// reachable from its tag's home without crossing an empty slot (the property
// backward-shift deletion must keep). It returns how many slots sit in a
// probe run that wrapped past the last slot.
func checkTable(t *testing.T, r *Ring) (wrapped int) {
	t.Helper()
	tb := &r.idx
	occupied := 0
	seen := map[graph.Edge]bool{}
	for i, s := range tb.slots {
		if s == 0 {
			continue
		}
		occupied++
		k := r.slot(int64(uint32(s)))
		if seq := pendingSeq(r, k); seq >= r.tail || uint32(seq) != uint32(s) || r.isDead(k) {
			t.Fatalf("slot %d names number %#x: not a live pending entry of [%d, %d)", i, uint32(s), r.head, r.tail)
		}
		e := r.buf[k].edge
		tag := uint32(s >> 32)
		if tag != tb.tag(e) {
			t.Fatalf("slot %d holds tag %#x, edge %v hashes to %#x", i, tag, e, tb.tag(e))
		}
		if seen[e] {
			t.Fatalf("edge %v stored twice", e)
		}
		seen[e] = true
		h := tb.home(tag)
		for j := h; j != uint64(i); j = (j + 1) & tb.mask {
			if tb.slots[j] == 0 {
				t.Fatalf("edge %v at slot %d unreachable from home %d: slot %d is empty", e, i, h, j)
			}
		}
		if uint64(i) < h {
			wrapped++
		}
	}
	if occupied != tb.n {
		t.Fatalf("%d occupied slots, n = %d", occupied, tb.n)
	}
	if ents := r.Entries(); len(ents)-deadCount(ents) != tb.n {
		t.Fatalf("%d live pending entries, %d indexed", len(ents)-deadCount(ents), tb.n)
	}
	if 2*tb.n > len(tb.slots) {
		t.Fatalf("load %d/%d above 1/2", tb.n, len(tb.slots))
	}
	return wrapped
}

// pendingSeq returns the number of the pending entry in buffer slot k (or a
// number at or past tail when slot k holds none).
func pendingSeq(r *Ring, k int64) int64 { return r.head + r.slot(k-r.head) }

// liveSeq returns the number of e's live entry, read back from its index
// slot: the pending number in the buffer slot the slot names, whose low 32
// bits must be the stored ones.
func liveSeq(t *testing.T, r *Ring, e graph.Edge) (int64, bool) {
	t.Helper()
	_, i, k, ok := r.probe(e)
	if !ok {
		return 0, false
	}
	seq := pendingSeq(r, k)
	if uint32(seq) != uint32(r.idx.slots[i]) {
		t.Fatalf("%v: index holds number %#x, its slot %d holds pending entry %d", e, uint32(r.idx.slots[i]), k, seq)
	}
	return seq, true
}

// collidingEdges returns count distinct edges whose home slot in tb is h,
// found by scanning the edge space (the table's seed is fixed by the caller).
func collidingEdges(tb *edgeTable, h uint64, count int, next *graph.VertexID) []graph.Edge {
	var out []graph.Edge
	for len(out) < count {
		e := graph.NewEdge(*next, *next+1)
		*next++
		if tb.home(tb.tag(e)) == h {
			out = append(out, e)
		}
	}
	return out
}

// permutations calls fn with every ordering of 0..n-1.
func permutations(n int, fn func([]int)) {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			fn(p)
			return
		}
		for i := k; i < n; i++ {
			p[k], p[i] = p[i], p[k]
			rec(k + 1)
			p[k], p[i] = p[i], p[k]
		}
	}
	rec(0)
}

// TestEdgeTableBackwardShiftColliding fills one probe run with edges that
// collide on the last slot, on slot 0 and on slot 1 — so the run wraps past
// the end of the array — then kills them in every order. After each kill
// the remaining edges must be found with their sequence numbers, the killed
// ones must be gone, and no empty slot may separate a slot from its home: a
// backward shift that moved a slot before its home, or left a hole, fails
// here.
func TestEdgeTableBackwardShiftColliding(t *testing.T) {
	var proto edgeTable
	proto.grow()
	proto.seed = [2]uint64{0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9}
	last := proto.mask
	var next graph.VertexID
	var edges []graph.Edge
	edges = append(edges, collidingEdges(&proto, last, 3, &next)...)
	edges = append(edges, collidingEdges(&proto, 0, 2, &next)...)
	edges = append(edges, collidingEdges(&proto, 1, 1, &next)...)

	permutations(len(edges), func(order []int) {
		r := Ring{idx: edgeTable{slots: make([]uint64, len(proto.slots)), mask: proto.mask, seed: proto.seed}}
		for i, e := range edges {
			r.Push(e, int64(i+1)) // entry i
		}
		if wrapped := checkTable(t, &r); wrapped == 0 {
			t.Fatal("no probe run wrapped past the last slot; the fixture lost its point")
		}
		gone := map[int]bool{}
		for _, k := range order {
			if !r.Kill(edges[k]) {
				t.Fatalf("order %v: Kill(%v) = false for a live edge", order, edges[k])
			}
			gone[k] = true
			checkTable(t, &r)
			for i, e := range edges {
				seq, ok := liveSeq(t, &r, e)
				if gone[i] {
					if ok {
						t.Fatalf("order %v: killed %v still found", order, e)
					}
				} else if !ok || seq != int64(i) {
					t.Fatalf("order %v: live entry of %v = %d,%v, want %d,true", order, e, seq, ok, i)
				}
			}
		}
		if r.Len() != 0 {
			t.Fatalf("order %v: Len %d after killing everything", order, r.Len())
		}
	})
}

// TestEdgeTablePutReplaces: pushing an edge that is still live rewrites its
// index slot in place to the new entry and marks the old entry dead, without
// growing the live count.
func TestEdgeTablePutReplaces(t *testing.T) {
	var r Ring
	e := graph.NewEdge(3, 9)
	r.Push(e, 4)
	r.Push(e, 11)
	if seq, ok := liveSeq(t, &r, e); !ok || seq != 1 || r.Len() != 1 {
		t.Fatalf("after replace: live entry %d,%v, Len %d", seq, ok, r.Len())
	}
	checkTable(t, &r)
	want := []Entry{{Edge: e, At: 4, Dead: true}, {Edge: e, At: 11}}
	if got := r.Entries(); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Entries() = %+v, want %+v", got, want)
	}
}

// TestEdgeTableSeededPerTable: two tables draw independent seeds, so the
// slot an edge lands in is not predictable from outside the process.
func TestEdgeTableSeededPerTable(t *testing.T) {
	var a, b edgeTable
	a.grow()
	b.grow()
	if a.seed == b.seed {
		t.Fatalf("two tables drew the same seed %#x", a.seed)
	}
	if a.seed[1]&1 == 0 || b.seed[1]&1 == 0 {
		t.Fatal("multiplier seed must be odd")
	}
}

// TestRingLongRunProperty drives a Ring through a long windowed history —
// pushes at advancing ticks, genuine deletions of live and absent edges,
// re-insertions of edges killed earlier, expiry of the aged prefix — against
// an append-only reference ledger. The run is long enough to grow the edge
// table and the ring buffer several times, wrap probe runs past the end of
// the slot array and wrap the ring around its buffer many times; membership,
// Len, expiry order and the pending entries must match the reference
// throughout.
func TestRingLongRunProperty(t *testing.T) {
	const (
		steps    = 120000
		universe = 6000
		span     = 800 // ticks an entry stays pending
	)
	rng := rand.New(rand.NewSource(7))
	var r Ring
	// Slot order follows the table's hash seed, which production draws at
	// random per table; whether a probe run wraps past the end of the slot
	// array depends on it. Pin it from the test's rng while the table is
	// still empty, so the coverage precondition below holds on every run.
	r.idx.grow()
	r.idx.seed = [2]uint64{rng.Uint64(), rng.Uint64() | 1}
	// Reference: every entry ever pushed, in order, with live edges mapped
	// to their index; head marks the expired prefix.
	var ref []Entry
	live := map[graph.Edge]int{}
	head := 0
	tick := int64(0)
	growths, wraps, maxSlots, wrapped := 0, 0, 0, 0
	lastLen := len(r.buf)
	edge := func() graph.Edge {
		u := graph.VertexID(rng.Intn(universe))
		return graph.NewEdge(u, u+1+graph.VertexID(rng.Intn(3)))
	}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 6:
			e := edge()
			_, want := live[e]
			if got := r.Has(e); got != want {
				t.Fatalf("step %d: Has(%v) = %v, reference %v", step, e, got, want)
			}
			if want {
				continue // the counter never double-pushes a live edge
			}
			tick++
			r.Push(e, tick)
			if r.slot(r.tail) == 0 {
				wraps++
			}
			live[e] = len(ref)
			ref = append(ref, Entry{Edge: e, At: tick})
		case op < 8:
			e := edge()
			i, want := live[e]
			if want {
				ref[i].Dead = true
				delete(live, e)
			}
			if got := r.Kill(e); got != want {
				t.Fatalf("step %d: Kill(%v) = %v, reference %v", step, e, got, want)
			}
		default:
			cutoff := tick - span
			for {
				e, ok := r.ExpireOne(cutoff)
				for head < len(ref) && ref[head].At <= cutoff && ref[head].Dead {
					head++
				}
				wantOK := head < len(ref) && ref[head].At <= cutoff
				if ok != wantOK {
					t.Fatalf("step %d: ExpireOne(%d) ok = %v, reference %v", step, cutoff, ok, wantOK)
				}
				if !ok {
					break
				}
				if e != ref[head].Edge {
					t.Fatalf("step %d: expired %v, reference %v", step, e, ref[head].Edge)
				}
				delete(live, e)
				head++
			}
		}
		if r.Len() != len(live) {
			t.Fatalf("step %d: Len %d, reference %d", step, r.Len(), len(live))
		}
		if len(r.buf) != lastLen {
			growths++
			lastLen = len(r.buf)
		}
		if len(r.idx.slots) > maxSlots {
			maxSlots = len(r.idx.slots)
		}
		if step%1000 == 0 {
			wrapped += checkTable(t, &r)
			got, want := r.Entries(), ref[head:]
			if len(got) != len(want) {
				t.Fatalf("step %d: %d pending entries, reference %d", step, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: Entries()[%d] = %+v, reference %+v", step, i, got[i], want[i])
				}
			}
		}
	}
	if maxSlots < 4*minSlots || growths < 5 || wraps < 50 || wrapped == 0 {
		t.Fatalf("run too short to exercise the ledger: max %d slots, %d ring growths, %d ring wraps, %d wrapped slots seen",
			maxSlots, growths, wraps, wrapped)
	}
	t.Logf("max %d slots, %d ring growths, %d ring wraps, %d wrapped slots seen", maxSlots, growths, wraps, wrapped)
}

// TestEdgeTableTagCollision: two edges whose 31-bit tags are equal share a
// probe run's tag and are told apart only by the edge in the ring entry a
// slot names. Each must be found, killed and re-pushed without touching the
// other.
func TestEdgeTableTagCollision(t *testing.T) {
	var r Ring
	r.idx.grow()
	r.idx.seed = [2]uint64{0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9}
	byTag := map[uint32]graph.Edge{}
	var a, b graph.Edge
	for u := graph.VertexID(0); ; u++ {
		e := graph.NewEdge(u, u+1)
		if prev, ok := byTag[r.idx.tag(e)]; ok {
			a, b = prev, e
			break
		}
		byTag[r.idx.tag(e)] = e
	}
	r.Push(a, 1)
	if r.Has(b) || r.Kill(b) {
		t.Fatalf("%v found through the tag of %v", b, a)
	}
	r.Push(b, 2)
	if !r.Has(a) || !r.Has(b) || r.Len() != 2 {
		t.Fatalf("after pushing both: Has %v,%v, Len %d", r.Has(a), r.Has(b), r.Len())
	}
	if !r.Kill(a) || r.Has(a) || !r.Has(b) {
		t.Fatalf("killing %v disturbed %v", a, b)
	}
	r.Push(a, 3)
	checkTable(t, &r)
	want := []Entry{{Edge: a, At: 1, Dead: true}, {Edge: b, At: 2}, {Edge: a, At: 3}}
	for i, got := range r.Entries() {
		if got != want[i] {
			t.Fatalf("Entries()[%d] = %+v, want %+v", i, got, want[i])
		}
	}
}
