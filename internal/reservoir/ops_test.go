package reservoir

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/graph"
)

// opsCapacity is the reservoir capacity the op histories run at: large
// enough for a hub row to grow past 1,000 entries.
const opsCapacity = 1200

// opsVertex maps a small vertex code to an ID; codes from 28 up land beyond
// maxMarkID, in the sparse adjFar index.
func opsVertex(code byte) graph.VertexID {
	c := graph.VertexID(code % 32)
	if c >= 28 {
		return maxMarkID + c
	}
	return c
}

// opsHubs are the vertices hub bursts attach to; their leaves take the next
// of opsLeaves IDs from opsLeafBase up, so a burst grows one row through
// every block class.
var opsHubs = [2]graph.VertexID{3, maxMarkID + 5}

const opsLeafBase, opsLeaves = 100, 4096

// opsArgs is the number of argument bytes each op code takes.
var opsArgs = [8]int{3, 3, 0, 2, 1, 2, 0, 2}

// opsRun decodes data as a history of reservoir operations, applies each to
// a reservoir and to a map-based reference, and checks the two agree — and
// that the arena is well formed — after every operation. Each op is one
// code byte followed by its argument bytes; a truncated op ends the history.
// It returns the largest hub degree seen and how many ops shrank the arena
// (compacted it).
//
//	0, 1  push an edge between two small vertices (evicting the minimum
//	      first when full, as the samplers do)
//	2     pop the minimum
//	3     remove an edge, present or absent
//	4     toggle the DEL tag of a stored item
//	5     hub burst: attach up to 511 fresh leaves to a hub
//	6     mass removal: remove every other stored item
//	7     push a self-loop, or drain up to 255 of a hub's edges
func opsRun(t *testing.T, data []byte) (maxHub, compactions int) {
	t.Helper()
	r := New(opsCapacity)
	model := map[graph.Edge]*Item{}
	seq := 0.0
	rank := func(b byte) float64 {
		// Distinct ranks, so the minimum is unique and PopMin is checkable.
		seq++
		return float64(b)*1e6 + seq
	}
	leaf, slots := 0, 0
	push := func(e graph.Edge, rk float64) {
		if _, ok := model[e]; ok {
			return
		}
		if r.Full() {
			delete(model, r.PopMin().Edge)
		}
		model[e] = r.PushValue(e, 1, rk, int64(seq))
	}
	remove := func(e graph.Edge) {
		_, want := model[e]
		if got := r.Remove(e); (got != nil) != want {
			t.Fatalf("Remove(%v) = %v, reference has it: %v", e, got, want)
		}
		delete(model, e)
	}
	for p := 0; p < len(data); {
		op := data[p] % 8
		args := opsArgs[op]
		if p+1+args > len(data) {
			break
		}
		a := data[p+1 : p+1+args]
		p += 1 + args
		switch op {
		case 0, 1:
			if u, v := opsVertex(a[0]), opsVertex(a[1]); u != v {
				push(graph.NewEdge(u, v), rank(a[2]))
			}
		case 2:
			got := r.PopMin()
			if (got != nil) != (len(model) > 0) {
				t.Fatalf("PopMin = %v with %d reference items", got, len(model))
			}
			if got != nil {
				for _, it := range model {
					if it.Rank < got.Rank {
						t.Fatalf("PopMin rank %v, reference holds %v", got.Rank, it.Rank)
					}
				}
				delete(model, got.Edge)
			}
		case 3:
			remove(graph.NewEdge(opsVertex(a[0]), opsVertex(a[1])))
		case 4:
			if r.Len() > 0 {
				it := r.heap[int(a[0])%r.Len()]
				r.SetDeleted(it, !it.Deleted)
			}
		case 5:
			hub := opsHubs[a[0]%2]
			for k := 0; k < 1+int(a[1])*2; k++ {
				push(graph.NewEdge(hub, graph.VertexID(opsLeafBase+leaf%opsLeaves)), rank(a[0]+byte(k)))
				leaf++
			}
		case 6:
			items := r.Items()
			sort.Slice(items, func(i, j int) bool { return items[i].Rank < items[j].Rank })
			for i := 0; i < len(items); i += 2 {
				remove(items[i].Edge)
			}
		case 7:
			if a[0]%2 == 0 {
				v := opsVertex(a[1])
				push(graph.NewEdge(v, v), rank(a[1]))
				break
			}
			hub := opsHubs[a[0]/2%2]
			var nbrs []graph.VertexID
			r.ForEachNeighbor(hub, func(v graph.VertexID) bool {
				nbrs = append(nbrs, v)
				return len(nbrs) <= int(a[1])
			})
			for _, v := range nbrs {
				remove(graph.NewEdge(hub, v))
			}
		}
		checkInvariants(t, r)
		checkArena(t, r)
		checkReference(t, r, model)
		for _, hub := range opsHubs {
			maxHub = max(maxHub, r.Degree(hub))
		}
		if len(r.vs) < slots {
			compactions++
		}
		slots = len(r.vs)
	}
	return maxHub, compactions
}

// checkReference compares the reservoir with the reference edge set: size,
// Get/HasEdge and the stored item per edge, Degree and LiveDegree per vertex,
// and the minimum.
func checkReference(t *testing.T, r *Reservoir, model map[graph.Edge]*Item) {
	t.Helper()
	if r.Len() != len(model) {
		t.Fatalf("Len %d, reference %d", r.Len(), len(model))
	}
	deg, live := map[graph.VertexID]int{}, map[graph.VertexID]int{}
	var min *Item
	for e, it := range model {
		if got, ok := r.Get(e); !ok || got != it {
			t.Fatalf("Get(%v) = %v, %v; reference item %p", e, got, ok, it)
		}
		if !r.HasEdge(e.V, e.U) {
			t.Fatalf("HasEdge(%d, %d) false for a stored edge", e.V, e.U)
		}
		// A self-loop holds two entries in its vertex's row.
		deg[e.U]++
		deg[e.V]++
		if !it.Deleted {
			live[e.U]++
			live[e.V]++
		}
		if min == nil || it.Rank < min.Rank {
			min = it
		}
	}
	if r.Min() != min {
		t.Fatalf("Min = %v, reference minimum %v", r.Min(), min)
	}
	for u, d := range deg {
		if r.Degree(u) != d || r.LiveDegree(u) != live[u] {
			t.Fatalf("vertex %d: Degree %d LiveDegree %d, reference %d and %d", u, r.Degree(u), r.LiveDegree(u), d, live[u])
		}
	}
	entries := 0
	r.forEachList(func(u graph.VertexID, l adjList) {
		if deg[u] != len(l.vs) {
			t.Fatalf("vertex %d has a row of %d entries, reference degree %d", u, len(l.vs), deg[u])
		}
		entries += len(l.vs)
	})
	if entries != 2*len(model) {
		t.Fatalf("rows hold %d entries for %d reference edges", entries, len(model))
	}
}

// checkArena verifies the adjacency arena's structure: live row blocks and
// free-list blocks tile the slabs exactly (so they are disjoint), each live
// row sits in the smallest block class that holds it and leaves no stale
// item pointers past its end, each free block is marked with its class's
// freeMark, freeSlots matches the free lists, recycled headers are empty and
// unreferenced, and the arena holds at most 3 slots per live entry plus
// compactSlack.
func checkArena(t *testing.T, r *Reservoir) {
	t.Helper()
	if len(r.vs) != len(r.its) {
		t.Fatalf("slabs out of step: %d IDs, %d items", len(r.vs), len(r.its))
	}
	type block struct {
		off, size uint32
		free      bool
	}
	var blocks []block
	referenced := map[uint32]bool{}
	check := func(u graph.VertexID, s uint32) {
		if s == 0 || int(s) > len(r.rows) {
			t.Fatalf("vertex %d indexes header %d of %d", u, s, len(r.rows))
		}
		referenced[s] = true
		h := r.rows[s-1]
		if h.n == 0 {
			t.Fatalf("vertex %d indexes an empty header", u)
		}
		size := uint32(1) << blockClass(h.n)
		if int(h.off+size) > len(r.vs) {
			t.Fatalf("vertex %d: block [%d, %d) beyond the arena's %d slots", u, h.off, h.off+size, len(r.vs))
		}
		for k := h.off + h.n; k < h.off+size; k++ {
			if r.its[k] != nil {
				t.Fatalf("vertex %d: stale item pointer at slot %d past its row", u, k)
			}
		}
		blocks = append(blocks, block{h.off, size, false})
	}
	for u, s := range r.adjIdx {
		if s != 0 {
			check(graph.VertexID(u), s)
		}
	}
	for u, s := range r.adjFar {
		check(u, s)
	}
	free := 0
	for c, head := range r.freeHead {
		for steps := 0; head != 0; steps++ {
			if steps > len(r.vs) {
				t.Fatalf("free list of class %d has a cycle", c)
			}
			off := head - 1
			size := uint32(1) << c
			if int(off+size) > len(r.vs) {
				t.Fatalf("free class-%d block at %d beyond the arena's %d slots", c, off, len(r.vs))
			}
			if r.its[off] != &freeMark[c] {
				t.Fatalf("free class-%d block at %d lacks its mark", c, off)
			}
			blocks = append(blocks, block{off, size, true})
			free += int(size)
			head = uint32(r.vs[off])
		}
	}
	if free != r.freeSlots {
		t.Fatalf("free lists hold %d slots, freeSlots says %d", free, r.freeSlots)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].off < blocks[j].off })
	at := uint32(0)
	for _, b := range blocks {
		if b.off != at {
			t.Fatalf("block at %d (free %v), expected one at %d: blocks overlap or leave a gap", b.off, b.free, at)
		}
		at += b.size
	}
	if int(at) != len(r.vs) {
		t.Fatalf("blocks cover %d of the arena's %d slots", at, len(r.vs))
	}
	for _, s := range r.freeRows {
		if referenced[s] || r.rows[s-1] != (row{}) {
			t.Fatalf("recycled header %d is still in use: %+v", s, r.rows[s-1])
		}
	}
	if len(referenced)+len(r.freeRows) != len(r.rows) {
		t.Fatalf("%d headers: %d referenced, %d free", len(r.rows), len(referenced), len(r.freeRows))
	}
	if entries := 2 * r.Len(); len(r.vs) > 3*entries+compactSlack {
		t.Fatalf("arena holds %d slots for %d live entries, bound %d", len(r.vs), entries, 3*entries+compactSlack)
	}
}

// opsHistory returns a seeded random op history that mixes every op code,
// with hub bursts at full size.
func opsHistory(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var data []byte
	for i := 0; i < n; i++ {
		op := byte(rng.Intn(8))
		data = append(data, op)
		for k := 0; k < opsArgs[op]; k++ {
			data = append(data, byte(rng.Intn(256)))
		}
		if op == 5 {
			data[len(data)-1] = 255
		}
	}
	return data
}

// TestReservoirOpsSeeded replays seeded random op histories, plus a scripted
// one: a hub grows past 1,000 entries and drains, half the sample is removed
// at once, and self-loops come and go.
func TestReservoirOpsSeeded(t *testing.T) {
	scripted := []byte{
		0, 1, 2, 9, 0, 2, 4, 10, // two small edges
		5, 0, 255, 5, 0, 255, 5, 0, 60, // hub 3 grows to 1,143 entries
		7, 1, 255, 7, 1, 255, 7, 1, 255, 7, 1, 255, 7, 1, 255, // drained
		5, 1, 255, 5, 1, 255, 5, 1, 255, // the far hub grows past capacity
		6,                       // mass removal of half the sample
		7, 0, 4, 7, 0, 30, 4, 7, // self-loops and a tag toggle
		6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, // drain to empty
		0, 5, 6, 1, // and refill
	}
	if maxHub, compactions := opsRun(t, scripted); maxHub <= 1000 || compactions == 0 {
		t.Fatalf("scripted history: largest hub row %d, %d compactions; want a row past 1,000 and a compaction", maxHub, compactions)
	}
	for seed := int64(1); seed <= 6; seed++ {
		opsRun(t, opsHistory(seed, 400))
	}
}

// FuzzReservoirOps runs arbitrary op histories against the reference.
func FuzzReservoirOps(f *testing.F) {
	f.Add([]byte{5, 0, 255, 5, 0, 255, 5, 0, 60, 7, 1, 255, 7, 1, 255, 6})
	f.Add([]byte{7, 0, 4, 4, 0, 7, 0, 4, 3, 4, 4})
	f.Add(opsHistory(1, 60))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		opsRun(t, data)
	})
}

// TestSparseRowFootprint pins the adjacency cost of a sparse sample: 15,000
// edges whose endpoints all have degree 1, over IDs below 150,000, must cost
// at most 40 bytes per adjacency entry in row headers and arena slots
// (capacities, not lengths). Items, the heap slice and the vertex index are
// not counted. A 48-byte header per row with both slices seeded at capacity 8
// cost about 145 bytes.
func TestSparseRowFootprint(t *testing.T) {
	const edges = 15000
	r := New(edges)
	for i := 0; i < edges; i++ {
		u := graph.VertexID(10 * i)
		r.PushValue(graph.NewEdge(u, u+1), 1, float64(i+1), int64(i))
	}
	checkArena(t, r)
	bytes := cap(r.rows)*int(unsafe.Sizeof(row{})) +
		cap(r.vs)*int(unsafe.Sizeof(graph.VertexID(0))) + cap(r.its)*int(unsafe.Sizeof((*Item)(nil)))
	perEntry := float64(bytes) / (2 * edges)
	t.Logf("%d rows, %d arena slots: %.1f B per adjacency entry", len(r.rows), cap(r.vs), perEntry)
	if perEntry > 40 {
		t.Fatalf("sparse sample costs %.1f B per adjacency entry, budget 40", perEntry)
	}
}
