package graph

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

// opsItem is the pointer payload the op histories store: the same shape as
// the reservoir's *Item, so they run the code the reservoir runs.
type opsItem struct{ e Edge }

// opsCapacity is the edge count the op histories keep the store under:
// large enough for a hub row to grow past 1,000 entries.
const opsCapacity = 1200

// opsVertex maps a small vertex code to an ID; codes from 28 up land beyond
// maxMarkID, in the sparse adjFar index.
func opsVertex(code byte) VertexID {
	c := VertexID(code % 32)
	if c >= 28 {
		return maxMarkID + c
	}
	return c
}

// opsHubs are the vertices hub bursts attach to; their leaves take the next
// of opsLeaves IDs from opsLeafBase up, so a burst grows one row through
// every block class.
var opsHubs = [2]VertexID{3, maxMarkID + 5}

const opsLeafBase, opsLeaves = 100, 4096

// opsArgs is the number of argument bytes each op code takes.
var opsArgs = [8]int{3, 3, 1, 2, 3, 2, 0, 2}

// opsModel is the map reference an op history is checked against, with its
// edges in a slice so ops can pick one by index.
type opsModel[P any] struct {
	pay  map[Edge]P
	keys []Edge
}

func (m *opsModel[P]) add(e Edge, p P) {
	m.pay[e] = p
	m.keys = append(m.keys, e)
}

func (m *opsModel[P]) remove(e Edge) {
	delete(m.pay, e)
	i := slices.Index(m.keys, e)
	m.keys[i] = m.keys[len(m.keys)-1]
	m.keys = m.keys[:len(m.keys)-1]
}

// opsRun decodes data as a history of store operations, applies each to s
// and to a map reference, and checks the two agree — and that the arena is
// well formed — after every operation. mk builds an edge's payload. Each op
// is one code byte followed by its argument bytes; a truncated op ends the
// history. It returns the largest hub degree seen and how many ops shrank
// the arena (compacted it).
//
//	0, 1  link an edge between two small vertices (first unlinking one picked
//	      by the third byte when the store holds opsCapacity edges)
//	2     unlink a stored edge picked by the byte
//	3     unlink an edge, present or absent
//	4     check the intersections of two small vertices against the reference
//	5     hub burst: link up to 511 fresh leaves to a hub
//	6     mass removal: unlink every other stored edge
//	7     link a self-loop, or drain up to 256 of a hub's edges
func opsRun[P comparable](t *testing.T, s *Rows[P], mk func(Edge) P, data []byte) (maxHub, compactions int) {
	t.Helper()
	m := &opsModel[P]{pay: map[Edge]P{}}
	leaf, slots := 0, 0
	link := func(e Edge) {
		if _, ok := m.pay[e]; ok {
			return
		}
		if len(m.keys) >= opsCapacity {
			old := m.keys[0]
			s.Unlink(old)
			m.remove(old)
		}
		p := mk(e)
		s.Link(e, p)
		m.add(e, p)
	}
	unlink := func(e Edge) {
		if _, ok := m.pay[e]; ok {
			s.Unlink(e)
			m.remove(e)
		}
	}
	for at := 0; at < len(data); {
		op := data[at] % 8
		args := opsArgs[op]
		if at+1+args > len(data) {
			break
		}
		a := data[at+1 : at+1+args]
		at += 1 + args
		switch op {
		case 0, 1:
			if u, v := opsVertex(a[0]), opsVertex(a[1]); u != v {
				if len(m.keys) >= opsCapacity {
					unlink(m.keys[int(a[2])%len(m.keys)])
				}
				link(NewEdge(u, v))
			}
		case 2:
			if len(m.keys) > 0 {
				unlink(m.keys[int(a[0])%len(m.keys)])
			}
		case 3:
			unlink(NewEdge(opsVertex(a[0]), opsVertex(a[1])))
		case 4:
			checkIntersections(t, s, m, opsVertex(a[0]), opsVertex(a[1]), a[2])
		case 5:
			hub := opsHubs[a[0]%2]
			for k := 0; k < 1+int(a[1])*2; k++ {
				link(NewEdge(hub, VertexID(opsLeafBase+leaf%opsLeaves)))
				leaf++
			}
		case 6:
			keys := slices.Clone(m.keys)
			for i := 0; i < len(keys); i += 2 {
				unlink(keys[i])
			}
		case 7:
			if a[0]%2 == 0 {
				v := opsVertex(a[1])
				link(NewEdge(v, v))
				break
			}
			hub := opsHubs[a[0]/2%2]
			vs, _ := s.row(hub)
			for _, v := range slices.Clone(vs[:min(len(vs), int(a[1])+1)]) {
				unlink(NewEdge(hub, v))
			}
		}
		checkArena(t, s)
		checkReference(t, s, m)
		for _, hub := range opsHubs {
			maxHub = max(maxHub, s.Degree(hub))
		}
		if len(s.vs) < slots {
			compactions++
		}
		slots = len(s.vs)
	}
	return maxHub, compactions
}

// checkReference compares the store with the reference: Len, Find in both
// orientations with the stored payload, ProbeEdge, and every row against the
// sorted reference neighborhood.
func checkReference[P comparable](t *testing.T, s *Rows[P], m *opsModel[P]) {
	t.Helper()
	if s.Len() != len(m.pay) {
		t.Fatalf("Len %d, reference %d", s.Len(), len(m.pay))
	}
	nbrs := map[VertexID][]VertexID{}
	for e, p := range m.pay {
		for _, uv := range [2][2]VertexID{{e.U, e.V}, {e.V, e.U}} {
			if got, ok := s.Find(uv[0], uv[1]); !ok || got != p {
				t.Fatalf("Find(%d, %d) = %v, %v; reference payload %v", uv[0], uv[1], got, ok, p)
			}
		}
		if _, ok := s.ProbeEdge(e.V, e.U); !ok {
			t.Fatalf("ProbeEdge(%d, %d) misses a stored edge", e.V, e.U)
		}
		// A self-loop holds two entries in its vertex's row.
		nbrs[e.U] = append(nbrs[e.U], e.V)
		nbrs[e.V] = append(nbrs[e.V], e.U)
	}
	vertices := 0
	s.ForEachVertex(func(u VertexID) {
		vertices++
		want := nbrs[u]
		slices.Sort(want)
		if vs, _ := s.row(u); !slices.Equal(vs, want) || s.Degree(u) != len(want) {
			t.Fatalf("vertex %d: row %v (degree %d), reference %v", u, vs, s.Degree(u), want)
		}
	})
	if vertices != len(nbrs) {
		t.Fatalf("%d vertices have rows, reference has %d", vertices, len(nbrs))
	}
}

// checkIntersections checks ForEachCommonItem on (a, b) and ForEachAdjacentIn
// and ForEachPairAmong on candidates drawn from both neighborhoods (every
// mask-selected one) against brute force over the reference, payloads
// included; nil for a payload-free store.
func checkIntersections[P comparable](t *testing.T, s *Rows[P], m *opsModel[P], a, b VertexID, mask byte) {
	t.Helper()
	find := func(u, v VertexID) (any, bool) {
		p, ok := m.pay[NewEdge(u, v)]
		return payload(p), ok
	}
	type common struct {
		w      VertexID
		pa, pb any
	}
	var want, got []common
	va, _ := s.row(a)
	for _, w := range va {
		pa, _ := find(a, w)
		if pb, ok := find(b, w); ok && w != a && w != b {
			want = append(want, common{w, pa, pb})
		}
	}
	want = slices.CompactFunc(want, func(x, y common) bool { return x.w == y.w })
	s.ForEachCommonItem(a, b, func(w VertexID, pa, pb any) bool {
		got = append(got, common{w, pa, pb})
		return true
	})
	if !slices.Equal(got, want) {
		t.Fatalf("common(%d, %d) = %v, reference %v", a, b, got, want)
	}

	vb, _ := s.row(b)
	var cands []VertexID
	for i, v := range append(slices.Clone(va), vb...) {
		if mask>>(i%8)&1 != 0 {
			cands = append(cands, v)
		}
	}
	slices.Sort(cands)
	cands = slices.Compact(cands)
	type pair struct {
		i, j int
		p    any
	}
	var wantPairs, gotPairs, rowPairs []pair
	for i := range cands {
		for j := i + 1; j < len(cands); j++ {
			if p, ok := find(cands[i], cands[j]); ok {
				wantPairs = append(wantPairs, pair{i, j, p})
			}
		}
	}
	ok := s.ForEachPairAmong(cands, func(i, j int, p any) bool {
		gotPairs = append(gotPairs, pair{i, j, p})
		return true
	})
	for i := range cands {
		s.ForEachAdjacentIn(cands[i], cands, i+1, func(j int, p any) bool {
			rowPairs = append(rowPairs, pair{i, j, p})
			return true
		})
	}
	if !slices.Equal(rowPairs, wantPairs) {
		t.Fatalf("adjacent-in pairs among %v = %v, reference %v", cands, rowPairs, wantPairs)
	}
	if ok != (len(cands) < 2 || cands[len(cands)-1] < maxMarkID) {
		t.Fatalf("pair-among on %v reported %v", cands, ok)
	}
	if ok && !slices.Equal(gotPairs, wantPairs) {
		t.Fatalf("pairs among %v = %v, reference %v", cands, gotPairs, wantPairs)
	}
}

// checkArena verifies the adjacency arena's structure: live row blocks and
// free-list blocks tile the slabs exactly (so they are disjoint), each live
// row sits in the smallest block class that holds it and leaves no stale
// payload past its end, free blocks hold no payload, freeSlots matches the
// free lists, recycled headers are empty and unreferenced, and the arena
// holds at most 3 slots per live entry plus compactSlack.
func checkArena[P comparable](t *testing.T, s *Rows[P]) {
	t.Helper()
	var zero P
	if len(s.vs) != len(s.ps) {
		t.Fatalf("slabs out of step: %d IDs, %d payloads", len(s.vs), len(s.ps))
	}
	type block struct {
		off, size uint32
		free      bool
	}
	var blocks []block
	referenced := map[uint32]bool{}
	check := func(u VertexID, sl uint32) {
		if sl == 0 || int(sl) > len(s.rows) {
			t.Fatalf("vertex %d indexes header %d of %d", u, sl, len(s.rows))
		}
		referenced[sl] = true
		h := s.rows[sl-1]
		if h.n == 0 {
			t.Fatalf("vertex %d indexes an empty header", u)
		}
		size := uint32(1) << blockClass(h.n)
		if int(h.off+size) > len(s.vs) {
			t.Fatalf("vertex %d: block [%d, %d) beyond the arena's %d slots", u, h.off, h.off+size, len(s.vs))
		}
		for k := h.off + h.n; k < h.off+size; k++ {
			if s.ps[k] != zero {
				t.Fatalf("vertex %d: stale payload at slot %d past its row", u, k)
			}
		}
		blocks = append(blocks, block{h.off, size, false})
	}
	for u, sl := range s.adjIdx {
		if sl != 0 {
			check(VertexID(u), sl)
		}
	}
	for u, sl := range s.adjFar {
		check(u, sl)
	}
	free := 0
	for c, head := range s.freeHead {
		for steps := 0; head != 0; steps++ {
			if steps > len(s.vs) {
				t.Fatalf("free list of class %d has a cycle", c)
			}
			off := head - 1
			size := uint32(1) << c
			if int(off+size) > len(s.vs) {
				t.Fatalf("free class-%d block at %d beyond the arena's %d slots", c, off, len(s.vs))
			}
			for k := off; k < off+size; k++ {
				if s.ps[k] != zero {
					t.Fatalf("free class-%d block at %d pins a payload at slot %d", c, off, k)
				}
			}
			blocks = append(blocks, block{off, size, true})
			free += int(size)
			head = uint32(s.vs[off])
		}
	}
	if free != s.freeSlots {
		t.Fatalf("free lists hold %d slots, freeSlots says %d", free, s.freeSlots)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].off < blocks[j].off })
	at := uint32(0)
	for _, b := range blocks {
		if b.off != at {
			t.Fatalf("block at %d (free %v), expected one at %d: blocks overlap or leave a gap", b.off, b.free, at)
		}
		at += b.size
	}
	if int(at) != len(s.vs) {
		t.Fatalf("blocks cover %d of the arena's %d slots", at, len(s.vs))
	}
	for _, sl := range s.freeRows {
		if referenced[sl] || s.rows[sl-1] != (row{}) {
			t.Fatalf("recycled header %d is still in use: %+v", sl, s.rows[sl-1])
		}
	}
	if len(referenced)+len(s.freeRows) != len(s.rows) {
		t.Fatalf("%d headers: %d referenced, %d free", len(s.rows), len(referenced), len(s.freeRows))
	}
	if entries := 2 * s.Len(); len(s.vs) > 3*entries+compactSlack {
		t.Fatalf("arena holds %d slots for %d live entries, bound %d", len(s.vs), entries, 3*entries+compactSlack)
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

// opsBoth runs one history against a pointer-payload store and a
// payload-free one, returning the pointer run's results (the two share every
// row operation, so they agree).
func opsBoth(t *testing.T, data []byte) (maxHub, compactions int) {
	t.Helper()
	maxHub, compactions = opsRun(t, &Rows[*opsItem]{}, func(e Edge) *opsItem { return &opsItem{e} }, data)
	opsRun(t, &Rows[struct{}]{}, func(Edge) struct{} { return struct{}{} }, data)
	return maxHub, compactions
}

// TestRowsOpsSeeded replays seeded random op histories, plus a scripted
// one: a hub grows past 1,000 entries and drains, half the store is removed
// at once, and self-loops come and go.
func TestRowsOpsSeeded(t *testing.T) {
	scripted := []byte{
		0, 1, 2, 9, 0, 2, 4, 10, // two small edges
		5, 0, 255, 5, 0, 255, 5, 0, 60, // hub 3 grows to 1,143 entries
		4, 3, 2, 255, // its intersections, in probe mode
		7, 1, 255, 7, 1, 255, 7, 1, 255, 7, 1, 255, 7, 1, 255, // drained
		5, 1, 255, 5, 1, 255, 5, 1, 255, // the far hub grows past capacity
		6,                 // mass removal of half the store
		7, 0, 4, 7, 0, 30, // self-loops
		4, 4, 0, 255, 4, 4, 30, 255, // and their intersections
		6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, // drain to empty
		0, 5, 6, 1, // and refill
	}
	if maxHub, compactions := opsBoth(t, scripted); maxHub <= 1000 || compactions == 0 {
		t.Fatalf("scripted history: largest hub row %d, %d compactions; want a row past 1,000 and a compaction", maxHub, compactions)
	}
	for seed := int64(1); seed <= 6; seed++ {
		opsBoth(t, opsHistory(seed, 400))
	}
}

// FuzzRowsOps runs arbitrary op histories against the reference, on both
// payload kinds.
func FuzzRowsOps(f *testing.F) {
	f.Add([]byte{5, 0, 255, 5, 0, 255, 5, 0, 60, 4, 3, 2, 255, 7, 1, 255, 7, 1, 255, 6})
	f.Add([]byte{7, 0, 4, 2, 0, 7, 0, 4, 3, 4, 4, 4, 4, 4, 255})
	f.Add(opsHistory(1, 60))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		opsBoth(t, data)
	})
}

// TestSparseRowFootprint pins the adjacency cost of a sparse sample: 15,000
// edges whose endpoints all have degree 1, over IDs below 150,000, stored
// with pointer payloads as the reservoir stores them, must cost at most 40
// bytes per adjacency entry in row headers and arena slots (capacities, not
// lengths). Payloads and the vertex index are not counted. A 48-byte header
// per row with both slices seeded at capacity 8 cost about 145 bytes.
func TestSparseRowFootprint(t *testing.T) {
	const edges = 15000
	var s Rows[*opsItem]
	s.Expect(edges)
	for i := 0; i < edges; i++ {
		u := VertexID(10 * i)
		e := NewEdge(u, u+1)
		s.Link(e, &opsItem{e})
	}
	checkArena(t, &s)
	bytes := cap(s.rows)*int(unsafe.Sizeof(row{})) +
		cap(s.vs)*int(unsafe.Sizeof(VertexID(0))) + cap(s.ps)*int(unsafe.Sizeof((*opsItem)(nil)))
	perEntry := float64(bytes) / (2 * edges)
	t.Logf("%d rows, %d arena slots: %.1f B per adjacency entry", len(s.rows), cap(s.vs), perEntry)
	if perEntry > 40 {
		t.Fatalf("sparse sample costs %.1f B per adjacency entry, budget 40", perEntry)
	}
}

// TestDenseIndexGrowthAmortized pins the adjIdx growth policy: streams
// that introduce vertex IDs in ascending order (most generators do) must
// not recopy the whole dense index on every new vertex. Exact-size growth
// here is O(V^2) bytes — ~200MB for the 4096 vertices below — and showed
// up as a 5x throughput collapse on the wedge-heavy benchsuite cells.
func TestDenseIndexGrowthAmortized(t *testing.T) {
	const vertices = 4096
	var s Rows[*opsItem]
	s.Expect(vertices)
	items := make([]opsItem, vertices/2)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for v := 0; v < vertices; v += 2 {
		e := NewEdge(VertexID(v), VertexID(v+1))
		items[v/2].e = e
		s.Link(e, &items[v/2])
	}
	runtime.ReadMemStats(&after)

	if grew := after.TotalAlloc - before.TotalAlloc; grew > 10<<20 {
		t.Fatalf("inserting %d ascending vertices allocated %d bytes; dense index growth is not amortized", vertices, grew)
	}
	if got := s.Len(); got != vertices/2 {
		t.Fatalf("Len = %d, want %d", got, vertices/2)
	}
}
