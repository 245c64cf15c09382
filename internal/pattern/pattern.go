// Package pattern defines the subgraph patterns counted (the paper's wedge,
// triangle and 4-clique, plus the 4-cycle and 5-clique extensions) and the
// enumeration primitive every estimator is built on: listing the pattern
// instances that an arriving or departing edge completes or destroys together
// with edges of a sampled graph (line 4 of Algorithm 2). MultiCompleter.ForEach
// is the one enumeration engine; Kind.ForEachCompletion and
// Kind.CountCompletions are convenience entry points over it.
package pattern

import (
	"sync"

	"repro/internal/graph"
)

// Kind identifies a subgraph pattern H.
type Kind int

const (
	// Wedge is the length-2 path (2 edges).
	Wedge Kind = iota
	// Triangle is the 3-clique (3 edges).
	Triangle
	// FourClique is the 4-clique (6 edges).
	FourClique
	// FourCycle is the chordless-or-not 4-cycle C4 (4 edges). The paper
	// evaluates wedges, triangles and 4-cliques; C4 is provided as an
	// extension exercising the same estimator machinery on a sparse pattern.
	FourCycle
	// FiveClique is the 5-clique (10 edges), provided as an extension: the
	// paper argues WSD generalizes to larger dense patterns, and the whole
	// stack (estimators, exact counters, RL state) is pattern-generic.
	FiveClique
)

// Size returns |H|, the number of edges in the pattern.
func (k Kind) Size() int {
	switch k {
	case Wedge:
		return 2
	case Triangle:
		return 3
	case FourClique:
		return 6
	case FourCycle:
		return 4
	case FiveClique:
		return 10
	}
	panic("pattern: unknown kind")
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Wedge:
		return "wedge"
	case Triangle:
		return "triangle"
	case FourClique:
		return "4-clique"
	case FourCycle:
		return "4-cycle"
	case FiveClique:
		return "5-clique"
	}
	return "unknown"
}

// Kinds lists all supported patterns in increasing size order.
func Kinds() []Kind { return []Kind{Wedge, Triangle, FourCycle, FourClique, FiveClique} }

// Valid reports whether k names a supported pattern. Deserialized kinds must
// be checked before calling Size or the enumeration entry points, which
// panic on unknown kinds.
func (k Kind) Valid() bool { return k >= Wedge && k <= FiveClique }

// IsClique reports whether k belongs to the clique family, whose enumeration
// starts from the event edge's common neighborhood and is eligible for the
// CliqueSink fast path.
func (k Kind) IsClique() bool { return k == Triangle || k == FourClique || k == FiveClique }

// ForEachCompletion enumerates the instances of pattern k that the edge
// {u, v} completes against view: for each instance, fn receives the other
// Size()-1 edges (every edge except {u, v} itself), all of which are present
// in the view. Enumeration stops early if fn returns false.
//
// The others slice is reused across invocations; fn must not retain it. The
// edge {u, v} itself may or may not be present in the view (see
// MultiCompleter.ForEach).
//
// This is the convenience entry point; it borrows a pooled one-kind
// MultiCompleter per call. Per-event hot paths should own a MultiCompleter,
// whose ForEach also delivers per-edge payloads.
func (k Kind) ForEachCompletion(v ItemView, a, b graph.VertexID, fn func(others []graph.Edge) bool) {
	p := borrowCompleter(k)
	p.fn, p.fns[0] = fn, p.each
	p.m.ForEach(v, a, b, p.fns[:], nil)
	p.fn = nil
	completerPools[k].Put(p)
}

// CountCompletions returns the number of instances completed by {a, b},
// i.e. |H(e)| in the paper's weight heuristic and |Hk| in the RL state.
func (k Kind) CountCompletions(v ItemView, a, b graph.VertexID) int {
	p := borrowCompleter(k)
	p.n, p.fns[0] = 0, p.count
	p.m.ForEach(v, a, b, p.fns[:], nil)
	n := p.n
	completerPools[k].Put(p)
	return n
}

// completerPools recycles the convenience entry points' enumerators, one
// pool per pattern kind, so their callers avoid rebuilding the enumeration
// scratch on every call.
var completerPools [FiveClique + 1]sync.Pool

// pooledCompleter is a one-kind MultiCompleter with its callback slot and
// both entry points' callbacks prebuilt, so a call allocates nothing of its
// own.
type pooledCompleter struct {
	m           *MultiCompleter
	fns         [1]func(others []graph.Edge, payloads []any) bool
	n           int                            // CountCompletions' tally
	fn          func(others []graph.Edge) bool // ForEachCompletion's callback
	count, each func(others []graph.Edge, payloads []any) bool
}

func borrowCompleter(k Kind) *pooledCompleter {
	if p, ok := completerPools[k].Get().(*pooledCompleter); ok {
		return p
	}
	m, err := NewMultiCompleter([]Kind{k})
	if err != nil {
		panic(err)
	}
	p := &pooledCompleter{m: m}
	p.count = func([]graph.Edge, []any) bool { p.n++; return true }
	p.each = func(others []graph.Edge, _ []any) bool { return p.fn(others) }
	return p
}
