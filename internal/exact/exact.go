// Package exact maintains exact subgraph counts |J(t)| over a fully dynamic
// graph stream, updated incrementally per event. The exact counter serves two
// roles in the reproduction: it is the ground truth for the ARE/MARE metrics
// of Section V-A, and it supplies the error signal ε(t) used by the RL reward
// (Eq. 24-25).
package exact

import (
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/stream"
)

// Counter tracks exact counts of the enabled patterns over the evolving
// graph. Construct with New; the zero value is not usable.
type Counter struct {
	g      *graph.AdjSet
	kinds  []pattern.Kind
	counts map[pattern.Kind]int64
}

// New returns a Counter tracking the given patterns. With no arguments it
// tracks every supported pattern. Tracking 4-cliques costs O(c^2) per event
// where c is the common-neighborhood size, so callers that only need one
// pattern should say so.
func New(kinds ...pattern.Kind) *Counter {
	if len(kinds) == 0 {
		kinds = pattern.Kinds()
	}
	c := &Counter{
		g:      graph.NewAdjSet(),
		counts: make(map[pattern.Kind]int64, len(kinds)),
	}
	for _, k := range kinds {
		if _, dup := c.counts[k]; !dup {
			c.kinds = append(c.kinds, k)
			c.counts[k] = 0
		}
	}
	return c
}

// Apply processes one stream event, updating the graph and all tracked
// counts. Infeasible events (inserting a present edge, deleting an absent
// one, self-loops) are ignored, mirroring the samplers' defensive behavior.
func (c *Counter) Apply(ev stream.Event) {
	e := ev.Edge
	if e.IsLoop() {
		return
	}
	switch ev.Op {
	case stream.Insert:
		if c.g.Has(e) {
			return
		}
		c.addDeltas(e, +1)
		c.g.Add(e)
	case stream.Delete:
		if !c.g.Has(e) {
			return
		}
		c.g.Remove(e)
		c.addDeltas(e, -1)
	}
}

// addDeltas adds sign times the number of tracked pattern instances that
// contain edge e, computed against the graph with e absent. For insertion the
// graph has not yet been mutated; for deletion it has just been mutated, so
// both cases see the same "e absent" view and the update is symmetric.
func (c *Counter) addDeltas(e graph.Edge, sign int64) {
	for _, k := range c.kinds {
		var n int
		if k == pattern.Wedge {
			// Each existing neighbor of u forms a wedge centered at u with
			// the new edge, and symmetrically for v.
			n = c.g.Degree(e.U) + c.g.Degree(e.V)
		} else {
			n = k.CountCompletions(c.g, e.U, e.V)
		}
		c.counts[k] += sign * int64(n)
	}
}

// Count returns the exact count of pattern k at the current time. It panics
// if k is not tracked, which is always a caller bug.
func (c *Counter) Count(k pattern.Kind) int64 {
	n, ok := c.counts[k]
	if !ok {
		panic("exact: pattern " + k.String() + " not tracked by this counter")
	}
	return n
}

// Graph exposes the current graph. Callers must not mutate it.
func (c *Counter) Graph() *graph.AdjSet { return c.g }

// CountStatic computes the exact count of pattern k on a static graph from
// scratch. It is the brute-force oracle used by property tests to validate
// the incremental counter, and by the relationship experiment (Fig. 2d).
func CountStatic(g *graph.AdjSet, k pattern.Kind) int64 {
	if !k.Valid() {
		panic("exact: unknown pattern kind")
	}
	var total int64
	if k == pattern.Wedge {
		// Wedges = sum over vertices of C(deg, 2).
		g.ForEachVertex(func(u graph.VertexID) {
			d := int64(g.Degree(u))
			total += d * (d - 1) / 2
		})
		return total
	}
	// Each instance is completed by every one of its Size() edges.
	for _, e := range g.Edges() {
		total += int64(k.CountCompletions(g, e.U, e.V))
	}
	return total / int64(k.Size())
}

// PerEdgeTriangles returns, for every edge of g, the number of triangles
// containing it. Used by the weight-relationship experiment (Fig. 2d/4d).
func PerEdgeTriangles(g *graph.AdjSet) map[graph.Edge]int {
	out := make(map[graph.Edge]int, g.Len())
	for _, e := range g.Edges() {
		out[e] = pattern.Triangle.CountCompletions(g, e.U, e.V)
	}
	return out
}
