// Package graph provides the core data model shared by every subsystem:
// vertex identifiers, normalized undirected edges, and the one dynamic
// adjacency store, Rows, under both the sampled reservoir and the exact and
// baseline graphs (AdjSet).
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// VertexID identifies a vertex. Generators produce dense identifiers starting
// at 0, but nothing in the library assumes density.
type VertexID uint32

// Edge is an undirected edge. Construct edges with NewEdge so that U <= V
// always holds; two Edge values are then comparable with == and usable as map
// keys regardless of the endpoint order they were observed in.
type Edge struct {
	U, V VertexID
}

// NewEdge returns the normalized undirected edge {u, v}.
func NewEdge(u, v VertexID) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// IsLoop reports whether the edge is a self-loop. The streaming problem
// definition (Section II of the paper) considers simple graphs; generators
// and loaders reject loops, and samplers ignore them defensively.
func (e Edge) IsLoop() bool { return e.U == e.V }

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e; callers always know membership.
func (e Edge) Other(v VertexID) VertexID {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", v, e))
}

// String implements fmt.Stringer.
func (e Edge) String() string { return fmt.Sprintf("(%d,%d)", e.U, e.V) }

// AdjSet is a dynamic undirected simple graph: the Rows store with no
// payload column, so it implements pattern.IntersectView with nil payloads.
// It is what the exact counters and the uniform-sampling baselines keep
// their graphs in. The zero value is an empty graph; NewAdjSet returns one.
type AdjSet struct {
	Rows[struct{}]
}

// NewAdjSet returns an empty adjacency set.
func NewAdjSet() *AdjSet { return &AdjSet{} }

// Has reports whether edge e is present.
func (a *AdjSet) Has(e Edge) bool {
	_, ok := a.Find(e.U, e.V)
	return ok
}

// Add inserts edge e. It reports whether the edge was newly added (false if
// it was already present or is a self-loop).
func (a *AdjSet) Add(e Edge) bool {
	if e.IsLoop() || a.Has(e) {
		return false
	}
	a.Link(e, struct{}{})
	return true
}

// Remove deletes edge e. It reports whether the edge was present.
func (a *AdjSet) Remove(e Edge) bool {
	if !a.Has(e) {
		return false
	}
	a.Unlink(e)
	return true
}

// Neighbors returns the neighbors of u, ascending, as a freshly allocated
// slice.
func (a *AdjSet) Neighbors(u VertexID) []VertexID {
	vs, _ := a.row(u)
	return slices.Clone(vs)
}

// Edges returns all edges as a freshly allocated slice, sorted by U and then
// V. Intended for tests and snapshotting.
func (a *AdjSet) Edges() []Edge {
	out := make([]Edge, 0, a.Len())
	a.ForEachVertex(func(u VertexID) {
		vs, _ := a.row(u)
		for _, v := range vs[searchAdj(vs, u+1):] {
			out = append(out, Edge{U: u, V: v})
		}
	})
	slices.SortFunc(out, func(x, y Edge) int {
		if x.U != y.U {
			return cmp.Compare(x.U, y.U)
		}
		return cmp.Compare(x.V, y.V)
	})
	return out
}
