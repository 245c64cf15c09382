package pattern

import (
	"fmt"

	"repro/internal/graph"
)

// MultiCompleter is the enumeration engine: it lists the completions of one
// or several patterns against the same view in one pass per event. Counters
// and baselines own one (a one-kind set for a single pattern), and the
// convenience entry points Kind.ForEachCompletion and Kind.CountCompletions
// borrow pooled one-kind instances.
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
// A MultiCompleter is allocation-free per call after construction, not safe
// for concurrent use, and not reentrant — a callback must not call back into
// the same MultiCompleter.
type MultiCompleter struct {
	comps []*completer
}

// NewMultiCompleter returns a reusable multi-pattern enumerator over kinds,
// which must be non-empty, valid, and free of duplicates (each kind's
// estimates would be identical; a duplicate is always a caller bug).
func NewMultiCompleter(kinds []Kind) (*MultiCompleter, error) {
	if len(kinds) == 0 {
		return nil, fmt.Errorf("pattern: MultiCompleter needs at least one kind")
	}
	m := &MultiCompleter{comps: make([]*completer, len(kinds))}
	seen := make(map[Kind]bool, len(kinds))
	for i, k := range kinds {
		if !k.Valid() {
			return nil, fmt.Errorf("pattern: MultiCompleter kind %d is unknown", int(k))
		}
		if seen[k] {
			return nil, fmt.Errorf("pattern: MultiCompleter lists %s twice", k)
		}
		seen[k] = true
		m.comps[i] = newCompleter(k)
	}
	return m, nil
}

// ForEach enumerates, for every kind i in the set, the instances of kind i
// that edge {a, b} completes against v, delivering kind i's instances to
// fns[i]: the instance's other Size()-1 edges (every edge except {a, b}) with
// payloads[j] the payload of others[j]. Both slices are reused across
// instances — fns must not retain them — and a callback returning false
// stops its own kind's enumeration only. fns must have one callback per
// kind; a nil callback skips that kind.
//
// The edge {a, b} itself may or may not be present in v: neighbors equal to
// the opposite endpoint are excluded explicitly, so the same call serves
// insertion events (edge not yet sampled) and deletion events (edge possibly
// still sampled), matching the X and Y estimators of Eqs. (11)-(12).
//
// The common neighborhood of {a, b} is collected once and shared by every
// clique kind in the set. With a non-nil sink, every clique kind's instances
// go to the sink's typed callbacks instead of fns (the zero-materialization
// path: no per-instance edge or payload slices, and clique entries of fns are
// ignored): OnCommon fires once per common neighbor, then each clique kind's
// instances arrive via OnTriangle, OnPair or OnTriple. A sink needs a view
// with sorted intersection; any other view panics.
func (m *MultiCompleter) ForEach(v ItemView, a, b graph.VertexID, fns []func(others []graph.Edge, payloads []any) bool, sink CliqueSink) {
	if len(fns) != len(m.comps) {
		panic(fmt.Sprintf("pattern: MultiCompleter.ForEach got %d callbacks for %d kinds", len(fns), len(m.comps)))
	}
	is, _ := v.(IntersectView)
	if sink != nil && is == nil {
		panic("pattern: MultiCompleter.ForEach got a CliqueSink for a view without sorted intersection")
	}
	var collector *completer
	for i, c := range m.comps {
		if fns[i] == nil && (sink == nil || !c.kind.IsClique()) {
			continue
		}
		c.view, c.isect, c.a, c.b, c.fn, c.stop = v, is, a, b, fns[i], false
		switch c.kind {
		case Wedge:
			c.apex = a
			v.ForEachNeighborItem(a, c.shared)
			if !c.stop {
				c.apex = b
				v.ForEachNeighborItem(b, c.shared)
			}
		case FourCycle:
			v.ForEachNeighborItem(a, c.shared)
		default: // clique family: collect once, emit per kind
			c.sink = sink
			if collector == nil {
				c.collect()
				collector = c
			} else {
				c.common, c.payA, c.payB = collector.common, collector.payA, collector.payB
			}
			c.emitCliques()
			if c != collector {
				// Drop the aliased scratch: a later call in which this
				// completer collects must not append into the collector's
				// backing arrays.
				c.common, c.payA, c.payB = nil, nil, nil
			}
			c.sink = nil
		}
		// Drop references so a retained MultiCompleter does not pin the
		// view, the callbacks or the sink.
		c.view, c.isect, c.fn = nil, nil, nil
	}
}
