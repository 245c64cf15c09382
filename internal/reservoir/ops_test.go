package reservoir

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
)

// opsCapacity is the reservoir capacity the op histories run at: large
// enough for a hub row to grow past 1,000 entries.
const opsCapacity = 1200

// farID is the first vertex ID the adjacency store indexes sparsely, beyond
// its dense index and mark array.
const farID = 1 << 21

// opsVertex maps a small vertex code to an ID; codes from 28 up land at or
// beyond farID.
func opsVertex(code byte) graph.VertexID {
	c := graph.VertexID(code % 32)
	if c >= 28 {
		return farID + c
	}
	return c
}

// opsHubs are the vertices hub bursts attach to; their leaves take the next
// of opsLeaves IDs from opsLeafBase up, so a burst grows one row through
// every block class.
var opsHubs = [2]graph.VertexID{3, farID + 5}

const opsLeafBase, opsLeaves = 100, 4096

// opsArgs is the number of argument bytes each op code takes.
var opsArgs = [8]int{3, 3, 0, 2, 1, 2, 0, 2}

// opsRun decodes data as a history of reservoir operations, applies each to
// a reservoir and to a map-based reference, and checks the two agree after
// every operation. Each op is one code byte followed by its argument bytes;
// a truncated op ends the history. It returns the largest hub degree seen.
// (graph's TestRowsOpsSeeded runs the adjacency store's own op histories,
// with its arena checks.)
//
//	0, 1  push an edge between two small vertices (evicting the minimum
//	      first when full, as the samplers do)
//	2     pop the minimum
//	3     remove an edge, present or absent
//	4     toggle the DEL tag of a stored item
//	5     hub burst: attach up to 511 fresh leaves to a hub
//	6     mass removal: remove every other stored item
//	7     push a self-loop, or drain up to 255 of a hub's edges
func opsRun(t *testing.T, data []byte) (maxHub int) {
	t.Helper()
	r := New(opsCapacity)
	model := map[graph.Edge]*Item{}
	seq := 0.0
	rank := func(b byte) float64 {
		// Distinct ranks, so the minimum is unique and PopMin is checkable.
		seq++
		return float64(b)*1e6 + seq
	}
	leaf := 0
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
			nbrs, _ := rowOf(r, hub)
			for _, v := range nbrs[:min(len(nbrs), int(a[1])+1)] {
				remove(graph.NewEdge(hub, v))
			}
		}
		checkInvariants(t, r)
		checkReference(t, r, model)
		for _, hub := range opsHubs {
			maxHub = max(maxHub, r.Degree(hub))
		}
	}
	return maxHub
}

// checkReference compares the reservoir with the reference edge set: size,
// Get and ProbeEdge and the stored item per edge, the full and live Degree
// per vertex, and the minimum.
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
		if !hasEdge(r, e.V, e.U) {
			t.Fatalf("ProbeEdge(%d, %d) misses a stored edge", e.V, e.U)
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
		if r.Degree(u) != d || r.Live().Degree(u) != live[u] {
			t.Fatalf("vertex %d: Degree %d, live %d, reference %d and %d", u, r.Degree(u), r.Live().Degree(u), d, live[u])
		}
	}
	entries := 0
	forEachRow(r, func(u graph.VertexID, vs []graph.VertexID, _ []*Item) {
		if deg[u] != len(vs) {
			t.Fatalf("vertex %d has a row of %d entries, reference degree %d", u, len(vs), deg[u])
		}
		entries += len(vs)
	})
	if entries != 2*len(model) {
		t.Fatalf("rows hold %d entries for %d reference edges", entries, len(model))
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
	if maxHub := opsRun(t, scripted); maxHub <= 1000 {
		t.Fatalf("scripted history: largest hub row %d, want one past 1,000", maxHub)
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
