package sampling

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// rpSample implements random pairing (Gemulla, Lehner, Haas: "A dip in the
// reservoir"), the uniform fully dynamic reservoir scheme every baseline in
// the paper builds on. It maintains a uniform sample of at most m edges from
// the live population it is fed, tracking the uncompensated deletion counters
// d_i (deleted while sampled) and d_o (deleted while unsampled) that pair
// future insertions with past deletions.
//
// The sample's adjacency doubles as a pattern.ItemView for estimator
// enumeration. WRS also links its waiting room's edges into it, so it holds
// every edge WRS stores.
type rpSample struct {
	m     int
	rng   *rand.Rand
	edges []graph.Edge
	idx   map[graph.Edge]int
	adj   *graph.AdjSet
	di    int // uncompensated deletions of sampled edges
	do    int // uncompensated deletions of unsampled edges
	s     int // live population size |E(t)| as fed to this sample

	// onAdd and onRemove, when non-nil, observe sample mutations. onAdd runs
	// before the edge is linked into the adjacency; onRemove runs after it is
	// unlinked. TRIEST-FD uses them to maintain its in-sample instance
	// counter.
	onAdd    func(e graph.Edge)
	onRemove func(e graph.Edge)
}

func newRPSample(m int, rng *rand.Rand) *rpSample {
	return &rpSample{
		m:   m,
		rng: rng,
		idx: make(map[graph.Edge]int, m),
		adj: graph.NewAdjSet(),
	}
}

func (r *rpSample) len() int { return len(r.edges) }

func (r *rpSample) contains(e graph.Edge) bool {
	_, ok := r.idx[e]
	return ok
}

// population returns W(t) = s + d_i + d_o, the size of the population random
// pairing behaves as if it were sampling from, and omega = min(m, W): the
// effective uniform sample size. The pair parameterizes every baseline's
// inclusion probabilities.
func (r *rpSample) population() (w, omega int) {
	w = r.s + r.di + r.do
	omega = r.m
	if w < omega {
		omega = w
	}
	return w, omega
}

// jointInverseProb returns 1 / P[k specific live edges are all sampled]
// = prod_{j=0}^{k-1} (W-j)/(omega-j). It returns 0 if the probability is 0
// (omega < k), which callers treat as "instance cannot have been observed".
func (r *rpSample) jointInverseProb(k int) float64 {
	w, omega := r.population()
	if omega < k {
		return 0
	}
	inv := 1.0
	for j := 0; j < k; j++ {
		inv *= float64(w-j) / float64(omega-j)
	}
	return inv
}

// insert feeds a live-population insertion through random pairing.
func (r *rpSample) insert(e graph.Edge) {
	r.s++
	if r.di+r.do == 0 {
		// No uncompensated deletions: standard reservoir sampling against the
		// live population size.
		if len(r.edges) < r.m {
			r.add(e)
			return
		}
		if r.rng.Float64() < float64(r.m)/float64(r.s) {
			r.evictRandom()
			r.add(e)
		}
		return
	}
	// Pair this insertion with a past deletion: it takes a sampled slot with
	// probability d_i/(d_i+d_o).
	if r.rng.Float64() < float64(r.di)/float64(r.di+r.do) {
		r.di--
		r.add(e)
	} else {
		r.do--
	}
}

// remove feeds a live-population deletion through random pairing.
func (r *rpSample) remove(e graph.Edge) {
	r.s--
	if r.contains(e) {
		r.drop(e)
		r.di++
	} else {
		r.do++
	}
}

func (r *rpSample) add(e graph.Edge) {
	if r.onAdd != nil {
		r.onAdd(e)
	}
	r.idx[e] = len(r.edges)
	r.edges = append(r.edges, e)
	r.adj.Add(e)
}

func (r *rpSample) drop(e graph.Edge) {
	i := r.idx[e]
	last := len(r.edges) - 1
	r.edges[i] = r.edges[last]
	r.idx[r.edges[i]] = i
	r.edges = r.edges[:last]
	delete(r.idx, e)
	r.adj.Remove(e)
	if r.onRemove != nil {
		r.onRemove(e)
	}
}

func (r *rpSample) evictRandom() {
	e := r.edges[r.rng.Intn(len(r.edges))]
	r.drop(e)
}

// enumerator is a baseline's own one-kind enumeration engine: the
// MultiCompleter and its instance callback are built once, so enumerating an
// event's instances allocates nothing.
type enumerator struct {
	comp *pattern.MultiCompleter
	fns  []func(others []graph.Edge, payloads []any) bool
	n    int
}

// newEnumerator returns an enumerator for pattern k passing each instance to
// fn, which may be nil when only the count matters. The samplers' config
// validation has already vetted k.
func newEnumerator(k pattern.Kind, fn func(others []graph.Edge, payloads []any) bool) *enumerator {
	comp, err := pattern.NewMultiCompleter([]pattern.Kind{k})
	if err != nil {
		panic(err)
	}
	en := &enumerator{comp: comp}
	en.fns = []func([]graph.Edge, []any) bool{func(others []graph.Edge, payloads []any) bool {
		en.n++
		return fn == nil || fn(others, payloads)
	}}
	return en
}

// run enumerates the instances e completes against v and returns how many
// there were.
func (en *enumerator) run(v pattern.ItemView, e graph.Edge) int {
	en.n = 0
	en.comp.ForEach(v, e.U, e.V, en.fns, nil)
	return en.n
}
