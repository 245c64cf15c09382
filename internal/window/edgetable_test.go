package window

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// checkTable verifies the edge table's structural invariants: the occupied
// slot count matches n, the load factor stays at or under 1/2, no key is
// stored twice, and every key is reachable from its home slot without
// crossing an empty slot (the property backward-shift deletion must keep).
// It returns how many keys sit in a probe run that wrapped past the last
// slot.
func checkTable(t *testing.T, tb *edgeTable) (wrapped int) {
	t.Helper()
	occupied := 0
	seen := map[uint64]bool{}
	for i, s := range tb.slots {
		if s.seq == 0 {
			continue
		}
		occupied++
		if seen[s.key] {
			t.Fatalf("key %#x stored twice", s.key)
		}
		seen[s.key] = true
		h := tb.home(s.key)
		for j := h; j != uint64(i); j = (j + 1) & tb.mask {
			if tb.slots[j].seq == 0 {
				t.Fatalf("key %#x at slot %d unreachable from home %d: slot %d is empty", s.key, i, h, j)
			}
		}
		if uint64(i) < h {
			wrapped++
		}
	}
	if occupied != tb.n {
		t.Fatalf("%d occupied slots, n = %d", occupied, tb.n)
	}
	if 2*tb.n > len(tb.slots) {
		t.Fatalf("load %d/%d above 1/2", tb.n, len(tb.slots))
	}
	return wrapped
}

// collidingEdges returns count distinct edges whose home slot in tb is h,
// found by scanning the edge space (the table's seed is fixed by the caller).
func collidingEdges(tb *edgeTable, h uint64, count int, next *graph.VertexID) []graph.Edge {
	var out []graph.Edge
	for len(out) < count {
		e := graph.NewEdge(*next, *next+1)
		*next++
		if tb.home(edgeKey(e)) == h {
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

// TestEdgeTableBackwardShiftColliding fills one probe run with keys that
// collide on the last slot, on slot 0 and on slot 1 — so the run wraps past
// the end of the array — then deletes them in every order. After each
// deletion the remaining keys must be found with their values, the deleted
// ones must be gone, and no empty slot may separate a key from its home: a
// backward shift that moved a key before its home, or left a hole, fails
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
		tb := edgeTable{slots: make([]edgeSlot, len(proto.slots)), mask: proto.mask, seed: proto.seed}
		for i, e := range edges {
			if _, replaced := tb.Put(e, int64(10*i)); replaced {
				t.Fatalf("fresh Put(%v) replaced a value", e)
			}
		}
		if wrapped := checkTable(t, &tb); wrapped == 0 {
			t.Fatal("no probe run wrapped past the last slot; the fixture lost its point")
		}
		gone := map[int]bool{}
		for _, k := range order {
			if seq, ok := tb.Delete(edges[k]); !ok || seq != int64(10*k) {
				t.Fatalf("order %v: Delete(%v) = %d,%v, want %d,true", order, edges[k], seq, ok, 10*k)
			}
			gone[k] = true
			checkTable(t, &tb)
			for i, e := range edges {
				seq, ok := tb.Get(e)
				if gone[i] {
					if ok {
						t.Fatalf("order %v: deleted %v still found", order, e)
					}
				} else if !ok || seq != int64(10*i) {
					t.Fatalf("order %v: Get(%v) = %d,%v, want %d,true", order, e, seq, ok, 10*i)
				}
			}
		}
		if tb.Len() != 0 {
			t.Fatalf("order %v: Len %d after deleting everything", order, tb.Len())
		}
	})
}

// TestEdgeTablePutReplaces: a second Put of a live key overwrites its value
// in place and reports the old one, without growing the count.
func TestEdgeTablePutReplaces(t *testing.T) {
	var tb edgeTable
	e := graph.NewEdge(3, 9)
	tb.Put(e, 4)
	if old, replaced := tb.Put(e, 11); !replaced || old != 4 {
		t.Fatalf("Put over a live key = %d,%v, want 4,true", old, replaced)
	}
	if seq, ok := tb.Get(e); !ok || seq != 11 || tb.Len() != 1 {
		t.Fatalf("after replace: Get = %d,%v, Len %d", seq, ok, tb.Len())
	}
}

// TestEdgeTableSeededPerTable: two tables draw independent seeds, so the
// slot a key lands in is not predictable from outside the process.
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
// an uncompacted reference ledger. The run is long enough to grow the edge
// table several times, wrap probe runs past the end of the slot array and
// compact the entry slice many times; membership, Len, expiry order and the
// pending entries must match the reference throughout.
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
	compactions, maxSlots, wrapped := 0, 0, 0
	lastBase := r.base
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
		if r.base != lastBase {
			compactions++
			lastBase = r.base
		}
		if len(r.idx.slots) > maxSlots {
			maxSlots = len(r.idx.slots)
		}
		if step%1000 == 0 {
			wrapped += checkTable(t, &r.idx)
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
	if maxSlots < 4*minTableSlots || compactions < 50 || wrapped == 0 {
		t.Fatalf("run too short to exercise the table: max %d slots, %d compactions, %d wrapped keys seen",
			maxSlots, compactions, wrapped)
	}
	t.Logf("max %d slots, %d compactions, %d wrapped keys seen", maxSlots, compactions, wrapped)
}
