package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEdgeNormalizes(t *testing.T) {
	if e := NewEdge(5, 2); e.U != 2 || e.V != 5 {
		t.Fatalf("NewEdge(5,2) = %v, want (2,5)", e)
	}
	if e := NewEdge(2, 5); e != NewEdge(5, 2) {
		t.Fatalf("NewEdge is not symmetric: %v vs %v", e, NewEdge(5, 2))
	}
}

func TestEdgeNormalizationProperty(t *testing.T) {
	f := func(u, v uint32) bool {
		e := NewEdge(VertexID(u), VertexID(v))
		return e.U <= e.V && e == NewEdge(VertexID(v), VertexID(u))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeOther(t *testing.T) {
	e := NewEdge(3, 9)
	if e.Other(3) != 9 || e.Other(9) != 3 {
		t.Fatalf("Other misbehaves on %v", e)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other on a non-endpoint should panic")
		}
	}()
	e.Other(4)
}

func TestEdgeIsLoop(t *testing.T) {
	if !NewEdge(4, 4).IsLoop() {
		t.Fatal("loop not detected")
	}
	if NewEdge(4, 5).IsLoop() {
		t.Fatal("non-loop flagged")
	}
}

func TestAdjSetAddRemove(t *testing.T) {
	a := NewAdjSet()
	e := NewEdge(1, 2)
	if !a.Add(e) {
		t.Fatal("first add should report true")
	}
	if a.Add(e) {
		t.Fatal("duplicate add should report false")
	}
	if a.Add(NewEdge(3, 3)) {
		t.Fatal("self-loop add should report false")
	}
	if _, ok := a.Find(2, 1); a.Len() != 1 || !a.Has(e) || !ok {
		t.Fatalf("membership broken: len=%d", a.Len())
	}
	if !a.Remove(e) {
		t.Fatal("remove of present edge should report true")
	}
	if a.Remove(e) {
		t.Fatal("remove of absent edge should report false")
	}
	vertices := 0
	a.ForEachVertex(func(VertexID) { vertices++ })
	if a.Len() != 0 || vertices != 0 {
		t.Fatalf("not empty after removal: len=%d vertices=%d", a.Len(), vertices)
	}
}

func TestAdjSetNeighborsAndDegree(t *testing.T) {
	a := NewAdjSet()
	a.Add(NewEdge(1, 2))
	a.Add(NewEdge(1, 3))
	a.Add(NewEdge(1, 4))
	if a.Degree(1) != 3 || a.Degree(2) != 1 || a.Degree(9) != 0 {
		t.Fatalf("degrees wrong: %d %d %d", a.Degree(1), a.Degree(2), a.Degree(9))
	}
	got := a.Neighbors(1)
	want := []VertexID{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("neighbors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v (sorted)", got, want)
		}
	}
}

func TestAdjSetForEachNeighborEarlyStop(t *testing.T) {
	a := NewAdjSet()
	for i := VertexID(1); i <= 10; i++ {
		a.Add(NewEdge(0, i))
	}
	n := 0
	a.ForEachNeighborItem(0, func(_ VertexID, payload any) bool {
		if payload != nil {
			t.Fatalf("AdjSet payload %v, want nil", payload)
		}
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop visited %d neighbors, want 3", n)
	}
}

func TestAdjSetCommonNeighbors(t *testing.T) {
	a := NewAdjSet()
	// Triangle 1-2-3 plus pendant 1-4.
	a.Add(NewEdge(1, 2))
	a.Add(NewEdge(2, 3))
	a.Add(NewEdge(1, 3))
	a.Add(NewEdge(1, 4))
	var common []VertexID
	a.ForEachCommonItem(1, 2, func(w VertexID, _, _ any) bool {
		common = append(common, w)
		return true
	})
	if len(common) != 1 || common[0] != 3 {
		t.Fatalf("common neighbors of (1,2) = %v, want [3]", common)
	}
}

func TestAdjSetEdgesSorted(t *testing.T) {
	a := NewAdjSet()
	a.Add(NewEdge(5, 2))
	a.Add(NewEdge(1, 9))
	a.Add(NewEdge(1, 3))
	edges := a.Edges()
	want := []Edge{NewEdge(1, 3), NewEdge(1, 9), NewEdge(2, 5)}
	if len(edges) != 3 {
		t.Fatalf("edges = %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edges = %v, want %v", edges, want)
		}
	}
}

// TestAdjSetMatchesReference drives AdjSet with random operations against a
// map-of-edges reference model.
func TestAdjSetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := NewAdjSet()
	ref := map[Edge]bool{}
	for op := 0; op < 5000; op++ {
		e := NewEdge(VertexID(rng.Intn(30)), VertexID(rng.Intn(30)))
		if rng.Intn(2) == 0 {
			got := a.Add(e)
			want := !e.IsLoop() && !ref[e]
			if want {
				ref[e] = true
			}
			if got != want {
				t.Fatalf("op %d: Add(%v) = %v, want %v", op, e, got, want)
			}
		} else {
			got := a.Remove(e)
			want := ref[e]
			delete(ref, e)
			if got != want {
				t.Fatalf("op %d: Remove(%v) = %v, want %v", op, e, got, want)
			}
		}
		if a.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, ref %d", op, a.Len(), len(ref))
		}
	}
	for e := range ref {
		if !a.Has(e) {
			t.Fatalf("reference edge %v missing", e)
		}
	}
}
