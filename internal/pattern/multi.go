package pattern

import (
	"fmt"

	"repro/internal/graph"
)

// MultiCompleter enumerates the completions of several patterns against the
// same view in one pass per event — the enumeration engine behind
// multi-pattern counting, where a single sampled graph answers P pattern
// queries at once.
//
// What is shared: the clique family (triangle, 4-clique, 5-clique) all begin
// by collecting the common neighborhood of the event edge, which costs one
// adjacency walk plus one hash probe per neighbor of the smaller endpoint —
// the dominant cost of clique completion. A MultiCompleter collects it once
// and lets every clique kind in its set emit from the shared scratch, so
// adding a triangle query to a 4-clique counter costs only the triangle's
// (linear) emit loop. Wedge and 4-cycle walk the adjacency directly and keep
// their own iterations, but still share the event's reservoir state, cache
// locality, and everything above this layer (sampling, ingestion, serving).
//
// Like Completer, a MultiCompleter is allocation-free per call after
// construction, not safe for concurrent use, and not reentrant.
type MultiCompleter struct {
	kinds []Kind
	comps []*Completer
	adapt plainAdapter
	// counts and countFns are the prebuilt per-kind counting callbacks used
	// by Counts, so counting stays allocation-free per call like ForEach.
	counts   []int
	countFns []func(others []graph.Edge, payloads []any) bool
}

// NewMultiCompleter returns a reusable multi-pattern enumerator over kinds,
// which must be non-empty, valid, and free of duplicates (each kind's
// estimates would be identical; a duplicate is always a caller bug).
func NewMultiCompleter(kinds []Kind) (*MultiCompleter, error) {
	if len(kinds) == 0 {
		return nil, fmt.Errorf("pattern: MultiCompleter needs at least one kind")
	}
	m := &MultiCompleter{
		kinds: append([]Kind(nil), kinds...),
		comps: make([]*Completer, len(kinds)),
	}
	seen := make(map[Kind]bool, len(kinds))
	for i, k := range kinds {
		if !k.Valid() {
			return nil, fmt.Errorf("pattern: MultiCompleter kind %d is unknown", int(k))
		}
		if seen[k] {
			return nil, fmt.Errorf("pattern: MultiCompleter lists %s twice", k)
		}
		seen[k] = true
		m.comps[i] = NewCompleter(k)
	}
	m.counts = make([]int, len(kinds))
	m.countFns = make([]func([]graph.Edge, []any) bool, len(kinds))
	for i := range kinds {
		i := i
		m.countFns[i] = func([]graph.Edge, []any) bool {
			m.counts[i]++
			return true
		}
	}
	m.adapt.init()
	return m, nil
}

// Kinds returns the enumerated patterns in construction order. The slice is
// shared; callers must not mutate it.
func (m *MultiCompleter) Kinds() []Kind { return m.kinds }

// isClique reports whether k belongs to the clique family, whose enumeration
// starts from the event edge's common neighborhood.
func isClique(k Kind) bool {
	return k == Triangle || k == FourClique || k == FiveClique
}

// ForEach enumerates, for every kind i in the set, the instances of kind i
// that edge {a, b} completes against v, delivering kind i's instances to
// fns[i] with the same contract as Completer.ForEach (payloads from
// ItemViews, reused slices, early stop per kind on false). fns must have one
// callback per kind; nil callbacks skip that kind's enumeration entirely.
//
// The common neighborhood of {a, b} is collected once and shared by every
// clique kind in the set.
func (m *MultiCompleter) ForEach(v View, a, b graph.VertexID, fns []func(others []graph.Edge, payloads []any) bool) {
	if len(fns) != len(m.comps) {
		panic(fmt.Sprintf("pattern: MultiCompleter.ForEach got %d callbacks for %d kinds", len(fns), len(m.kinds)))
	}
	iv, ok := v.(ItemView)
	if !ok {
		m.adapt.View = v
		iv = &m.adapt
	}
	is, _ := v.(IntersectView)
	var collector *Completer
	for i, c := range m.comps {
		if fns[i] == nil {
			continue
		}
		c.view, c.isect, c.a, c.b, c.fn, c.stop = iv, is, a, b, fns[i], false
		switch c.kind {
		case Wedge:
			c.apex = a
			iv.ForEachNeighborItem(a, c.shared)
			if !c.stop {
				c.apex = b
				iv.ForEachNeighborItem(b, c.shared)
			}
		case FourCycle:
			iv.ForEachNeighborItem(a, c.shared)
		default: // clique family: collect once, emit per kind
			if collector == nil {
				c.collect(iv, a, b)
				collector = c
			} else if c != collector {
				c.common, c.payA, c.payB = collector.common, collector.payA, collector.payB
			}
			c.emitCliques(iv, a, b)
			if c != collector {
				// Drop the aliased scratch like view/fn: a later
				// single-Completer call on this sharer must not append into
				// the collector's backing arrays.
				c.common, c.payA, c.payB = nil, nil, nil
			}
		}
		c.view, c.isect, c.fn = nil, nil, nil
	}
	m.adapt.View = nil
}

// ForEachWithSink enumerates like ForEach but routes every clique-family kind
// in the set through sink's typed callbacks (the zero-materialization fast
// path: no per-instance edge or payload slices), collecting the shared common
// neighborhood once: OnCommon fires once per common neighbor, then each
// clique kind's instances arrive via OnTriangle/OnPair/OnTriple. Non-clique kinds still use
// their fns entries, whose clique-position entries are ignored. It reports
// false — having enumerated nothing — when the view does not support sorted
// intersection or sink is nil; the caller then falls back to ForEach.
func (m *MultiCompleter) ForEachWithSink(v View, a, b graph.VertexID, fns []func(others []graph.Edge, payloads []any) bool, sink CliqueSink) bool {
	if len(fns) != len(m.comps) {
		panic(fmt.Sprintf("pattern: MultiCompleter.ForEachWithSink got %d callbacks for %d kinds", len(fns), len(m.kinds)))
	}
	is, ok := v.(IntersectView)
	if !ok || sink == nil {
		return false
	}
	var collector *Completer
	for i, c := range m.comps {
		if !isClique(c.kind) {
			if fns[i] == nil {
				continue
			}
			c.view, c.isect, c.a, c.b, c.fn, c.stop = is, is, a, b, fns[i], false
			switch c.kind {
			case Wedge:
				c.apex = a
				is.ForEachNeighborItem(a, c.shared)
				if !c.stop {
					c.apex = b
					is.ForEachNeighborItem(b, c.shared)
				}
			case FourCycle:
				is.ForEachNeighborItem(a, c.shared)
			}
			c.view, c.isect, c.fn = nil, nil, nil
			continue
		}
		c.view, c.isect, c.sink = is, is, sink
		c.a, c.b, c.stop = a, b, false
		if collector == nil {
			c.collect(is, a, b)
			collector = c
		} else {
			c.common, c.payA, c.payB = collector.common, collector.payA, collector.payB
		}
		c.emitCliquesIntersect()
		if c != collector {
			c.common, c.payA, c.payB = nil, nil, nil
		}
		c.view, c.isect, c.sink = nil, nil, nil
	}
	return true
}

// Counts returns, for each kind in the set, the number of instances completed
// by {a, b}, reusing dst when it has the capacity. The counting callbacks are
// prebuilt at construction, so a call is allocation-free when dst has room.
// Convenience for tests and weight heuristics; estimators use ForEach.
func (m *MultiCompleter) Counts(v View, a, b graph.VertexID, dst []int) []int {
	for i := range m.counts {
		m.counts[i] = 0
	}
	m.ForEach(v, a, b, m.countFns)
	return append(dst[:0], m.counts...)
}
