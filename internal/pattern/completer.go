package pattern

import (
	"math/bits"

	"repro/internal/graph"
)

// ItemView is the read-only graph interface enumeration runs against. Its
// edges carry an opaque per-edge payload: the sampled reservoir's
// *reservoir.Item, or nil for a *graph.AdjSet (the exact oracles' graphs and
// the uniform baselines' samples). Both are the same sorted-row store,
// graph.Rows, and implement IntersectView; a view without it is enumerated
// by neighbor walks and ProbeEdge, the reference path the differential
// tests check the merges against. Enumeration hands each instance's
// payloads to the callback alongside its edges, so estimators can read
// per-edge state (weights, arrival indexes) without a second hash lookup per
// edge — the dominant cost of the completion hot path for dense patterns.
//
// Payloads must be pointer-shaped (a pointer or nil): storing one in an `any`
// must not allocate, or the zero-allocation ingest guarantees break.
type ItemView interface {
	// Degree returns the number of neighbors of u.
	Degree(u graph.VertexID) int
	// ProbeEdge reports whether the undirected edge {u, v} is present, with
	// its payload.
	ProbeEdge(u, v graph.VertexID) (payload any, ok bool)
	// ForEachNeighborItem calls fn for each neighbor v of u with the payload
	// of edge {u, v}, until fn returns false.
	ForEachNeighborItem(u graph.VertexID, fn func(v graph.VertexID, payload any) bool)
}

// IntersectView extends ItemView for stores that keep each adjacency list
// sorted by neighbor ID (graph.Rows), exposing the two intersection
// primitives clique enumeration is built from. With these, common-neighborhood
// collection and pair/triple adjacency checks become merge walks over sorted
// slices instead of per-candidate hash probes — the dominant cost of dense
// enumeration.
type IntersectView interface {
	ItemView
	// ForEachCommonItem enumerates the common neighbors w of a and b in
	// ascending vertex-ID order, excluding a and b themselves, with the
	// payloads of (a, w) and (b, w), until fn returns false.
	ForEachCommonItem(a, b graph.VertexID, fn func(w graph.VertexID, payA, payB any) bool)
	// ForEachAdjacentIn enumerates, in ascending order, the indexes j in
	// [from, len(cands)) whose vertex cands[j] is adjacent to u, with the
	// payload of edge {u, cands[j]}, until fn returns false. cands must be
	// sorted ascending.
	ForEachAdjacentIn(u graph.VertexID, cands []graph.VertexID, from int, fn func(j int, payload any) bool)
	// ForEachPairAmong enumerates every pair i < j of sorted candidate IDs
	// connected by a stored edge, in ascending (i, j) order, with the payload
	// of edge {cands[i], cands[j]}, until fn returns false. It reports false
	// — having enumerated nothing — when the store cannot serve the request
	// (e.g. candidate IDs outside its mark-array range); the caller then
	// falls back to one ForEachAdjacentIn per candidate, which enumerates
	// the same pairs in the same order.
	ForEachPairAmong(cands []graph.VertexID, fn func(i, j int, payload any) bool) bool
}

// CliqueSink is the zero-materialization receiver for clique enumeration:
// instead of assembling each instance's []graph.Edge and []any slices, the
// enumerator hands the sink the common-neighborhood positions and the only
// payloads it has not already seen. Estimators that fold instances into a
// running sum (the per-event completion of Eqs. 11-13) precompute per-common
// factors in OnCommon and combine them per instance, skipping the instance
// slices, the edge construction, and the payload re-reads entirely.
//
// Index arguments refer to positions in the common-neighbor collection order
// (ascending vertex ID): OnCommon(i, ...) is called for every common neighbor
// first, then OnTriangle/OnPair/OnTriple fire per instance with i < j < k.
// Returning false from an instance callback stops that kind's enumeration.
type CliqueSink interface {
	// OnCommon reports common neighbor i: vertex w with the payloads of
	// (a, w) and (b, w).
	OnCommon(i int, w graph.VertexID, payA, payB any)
	// OnTriangle reports the triangle through common neighbor i.
	OnTriangle(i int) bool
	// OnPair reports the 4-clique on common neighbors i and j, with the
	// payload of the cross edge {common[i], common[j]}.
	OnPair(i, j int, payIJ any) bool
	// OnTriple reports the 5-clique on common neighbors i, j and k, with the
	// payloads of the three cross edges.
	OnTriple(i, j, k int, payIJ, payIK, payJK any) bool
}

// bitsetMinCommon and bitsetMaxCommon bound the common-neighborhood size for
// which 5-clique triple discovery builds dense bitset rows (one bit per common
// neighbor) and intersects them with word-wide ANDs instead of two-pointer
// merges. Below the minimum the masks cost more than they save; above the
// maximum the quadratic mask storage stops paying for itself. Variables, not
// constants, so tests can force the bitset regime on small inputs.
var (
	bitsetMinCommon = 32
	bitsetMaxCommon = 2048
)

// completer is one kind's enumeration scratch inside a MultiCompleter: the
// neighbor buffers, the instance slices, and every internal iteration closure
// are allocated once at construction and reused across calls, keeping
// MultiCompleter.ForEach allocation-free on the per-event hot path.
type completer struct {
	kind Kind

	// Instance scratch handed to the callback, reused across instances.
	others   []graph.Edge
	payloads []any

	// Common-neighborhood scratch for the clique patterns: common[i] is a
	// common neighbor w of the event edge's endpoints, payA[i]/payB[i] the
	// payloads of (a, w) and (b, w).
	common []graph.VertexID
	payA   []any
	payB   []any

	// Row scratch for 5-clique triple discovery: rowJ/rowPay hold, for each
	// common neighbor i in turn, the indexes j > i adjacent to it and the
	// cross-edge payloads, with rowStart[i]..rowStart[i+1] delimiting row i.
	// masks optionally holds maskW words of adjacency bits per common
	// neighbor (the dense-bitset fast path).
	rowJ     []int32
	rowPay   []any
	rowStart []int32
	masks    []uint64
	maskW    int

	// Per-call state read by the prebound closures.
	view   ItemView
	isect  IntersectView // non-nil when view supports sorted intersection
	sink   CliqueSink    // non-nil when clique instances go to a sink
	a, b   graph.VertexID
	hi     graph.VertexID // probe side while collecting common neighbors
	hiIsB  bool           // whether hi == b (payload ordering)
	apex   graph.VertexID // wedge: endpoint whose neighborhood is iterated
	x      graph.VertexID // 4-cycle: first path vertex
	payAX  any            // 4-cycle: payload of (a, x)
	curI   int            // 4-clique/row build: outer common index
	fn     func(others []graph.Edge, payloads []any) bool
	stop   bool
	shared func(v graph.VertexID, payload any) bool
	inner  func(v graph.VertexID, payload any) bool
	// Intersection-path closures, prebound like shared/inner.
	collectMerge  func(w graph.VertexID, payA, payB any) bool
	pairEmit      func(j int, payload any) bool
	pairSink      func(j int, payload any) bool
	rowAppend     func(j int, payload any) bool
	pairAmongEmit func(i, j int, payload any) bool
	rowAppendPair func(i, j int, payload any) bool
	// boundSink/boundOnPair cache a method-value binding of the current
	// sink's OnPair: its signature matches ForEachPairAmong's callback
	// exactly, so the 4-clique hot loop can call it with no adapter in
	// between, and caching the binding keeps the path allocation-free when
	// the same sink (the owning counter's) arrives every event.
	boundSink   CliqueSink
	boundOnPair func(i, j int, payload any) bool
}

func newCompleter(k Kind) *completer {
	h := k.Size()
	c := &completer{
		kind:     k,
		others:   make([]graph.Edge, h-1),
		payloads: make([]any, h-1),
	}
	// shared serves the single-level iterations: common-neighbor collection
	// for the clique patterns, apex iteration for wedges, and the outer path
	// iteration for 4-cycles. inner is the 4-cycle's second level.
	switch k {
	case Wedge:
		c.shared = c.visitWedge
	case FourCycle:
		c.shared = c.visitCycleOuter
		c.inner = c.visitCycleInner
	default:
		c.shared = c.collectCommon
	}
	c.collectMerge = func(w graph.VertexID, payA, payB any) bool {
		c.common = append(c.common, w)
		c.payA = append(c.payA, payA)
		c.payB = append(c.payB, payB)
		if c.sink != nil {
			c.sink.OnCommon(len(c.common)-1, w, payA, payB)
		}
		return true
	}
	c.pairEmit = func(j int, pwx any) bool {
		i := c.curI
		w, x := c.common[i], c.common[j]
		c.others[0], c.payloads[0] = graph.NewEdge(c.a, w), c.payA[i]
		c.others[1], c.payloads[1] = graph.NewEdge(c.b, w), c.payB[i]
		c.others[2], c.payloads[2] = graph.NewEdge(c.a, x), c.payA[j]
		c.others[3], c.payloads[3] = graph.NewEdge(c.b, x), c.payB[j]
		c.others[4], c.payloads[4] = graph.NewEdge(w, x), pwx
		return c.emit(5)
	}
	c.pairSink = func(j int, pwx any) bool {
		if !c.sink.OnPair(c.curI, j, pwx) {
			c.stop = true
			return false
		}
		return true
	}
	c.rowAppend = func(j int, pay any) bool {
		c.rowJ = append(c.rowJ, int32(j))
		c.rowPay = append(c.rowPay, pay)
		if w := c.maskW; w > 0 {
			i := c.curI
			c.masks[i*w+j>>6] |= 1 << uint(j&63)
			c.masks[j*w+i>>6] |= 1 << uint(i&63)
		}
		return true
	}
	c.pairAmongEmit = func(i, j int, pwx any) bool {
		c.curI = i
		return c.pairEmit(j, pwx)
	}
	// rowAppendPair is rowAppend fed by the single-pass pair enumeration:
	// pairs arrive in ascending (i, j) order, so rows stay contiguous and
	// curI tracks the row being filled, closing rowStart for skipped
	// (empty) rows as i advances.
	c.rowAppendPair = func(i, j int, pay any) bool {
		for c.curI < i {
			c.curI++
			c.rowStart[c.curI] = int32(len(c.rowJ))
		}
		c.rowJ = append(c.rowJ, int32(j))
		c.rowPay = append(c.rowPay, pay)
		if w := c.maskW; w > 0 {
			c.masks[i*w+j>>6] |= 1 << uint(j&63)
			c.masks[j*w+i>>6] |= 1 << uint(i&63)
		}
		return true
	}
	return c
}

// emit hands the current instance scratch to the callback.
func (c *completer) emit(n int) bool {
	if !c.fn(c.others[:n], c.payloads[:n]) {
		c.stop = true
		return false
	}
	return true
}

func (c *completer) visitWedge(x graph.VertexID, payload any) bool {
	// The wedge completed through apex's neighbor x; the opposite endpoint is
	// excluded (that would be the event edge itself).
	if (c.apex == c.a && x == c.b) || (c.apex == c.b && x == c.a) {
		return true
	}
	c.others[0] = graph.NewEdge(c.apex, x)
	c.payloads[0] = payload
	return c.emit(1)
}

func (c *completer) visitCycleOuter(x graph.VertexID, payload any) bool {
	if x == c.b {
		return true
	}
	c.x, c.payAX = x, payload
	c.view.ForEachNeighborItem(x, c.inner)
	return !c.stop
}

func (c *completer) visitCycleInner(y graph.VertexID, payload any) bool {
	// A 4-cycle completed by (a, b) is a path a - x - y - b of length 3: the
	// other edges are (a, x), (x, y), (y, b).
	if y == c.a || y == c.b || y == c.x {
		return true
	}
	pyb, ok := c.view.ProbeEdge(y, c.b)
	if !ok {
		return true
	}
	c.others[0], c.payloads[0] = graph.NewEdge(c.a, c.x), c.payAX
	c.others[1], c.payloads[1] = graph.NewEdge(c.x, y), payload
	c.others[2], c.payloads[2] = graph.NewEdge(y, c.b), pyb
	return c.emit(3)
}

// collectCommon gathers the common neighbors of the event edge, recording the
// payloads of both connecting edges: the iterated side's payload arrives as
// the argument, the probed side's from ProbeEdge.
func (c *completer) collectCommon(w graph.VertexID, payload any) bool {
	if w == c.a || w == c.b {
		return true
	}
	p, ok := c.view.ProbeEdge(c.hi, w)
	if !ok {
		return true
	}
	c.common = append(c.common, w)
	if c.hiIsB {
		c.payA = append(c.payA, payload)
		c.payB = append(c.payB, p)
	} else {
		c.payA = append(c.payA, p)
		c.payB = append(c.payB, payload)
	}
	return true
}

// collect fills the common-neighborhood scratch (common, payA, payB) for the
// event edge {a, b}: the collection phase of every clique pattern, which
// MultiCompleter.ForEach runs once per call and shares across the clique
// kinds in its set. Against an IntersectView the collection is a single merge
// of the two sorted endpoint lists and yields common in ascending vertex-ID
// order; the fallback iterates the smaller side probing the larger.
func (c *completer) collect() {
	c.common = c.common[:0]
	c.payA = c.payA[:0]
	c.payB = c.payB[:0]
	if c.isect != nil {
		c.isect.ForEachCommonItem(c.a, c.b, c.collectMerge)
		return
	}
	lo, hi := c.a, c.b
	if c.view.Degree(lo) > c.view.Degree(hi) {
		lo, hi = hi, lo
	}
	c.hi, c.hiIsB = hi, hi == c.b
	c.view.ForEachNeighborItem(lo, c.shared)
}

// emitCliques emits the completer's clique instances from the collected
// common-neighborhood scratch, which may alias another completer's
// collection.
func (c *completer) emitCliques() {
	if c.isect != nil {
		c.emitCliquesIntersect()
		return
	}
	switch c.kind {
	case Triangle:
		c.emitTriangles()
	case FourClique:
		for i := 0; i < len(c.common); i++ {
			for j := i + 1; j < len(c.common); j++ {
				w, x := c.common[i], c.common[j]
				pwx, ok := c.view.ProbeEdge(w, x)
				if !ok {
					continue
				}
				c.curI = i
				if !c.pairEmit(j, pwx) {
					return
				}
			}
		}
	case FiveClique:
		for i := 0; i < len(c.common); i++ {
			for j := i + 1; j < len(c.common); j++ {
				pij, ok := c.view.ProbeEdge(c.common[i], c.common[j])
				if !ok {
					continue
				}
				for k := j + 1; k < len(c.common); k++ {
					pik, ok := c.view.ProbeEdge(c.common[i], c.common[k])
					if !ok {
						continue
					}
					pjk, ok := c.view.ProbeEdge(c.common[j], c.common[k])
					if !ok {
						continue
					}
					if !c.emitTriple(i, j, k, pij, pik, pjk) {
						return
					}
				}
			}
		}
	}
}

// emitCliquesIntersect emits the clique instances using the sorted-adjacency
// intersection primitives: pair adjacency among common comes from merging
// each common vertex's adjacency with the common suffix, and triple adjacency
// from intersecting precomputed rows (optionally as dense bitsets). Instances
// go to the sink's typed callbacks when one is installed, otherwise to the
// generic fn.
func (c *completer) emitCliquesIntersect() {
	n := len(c.common)
	switch c.kind {
	case Triangle:
		if c.sink != nil {
			for i := 0; i < n; i++ {
				if !c.sink.OnTriangle(i) {
					c.stop = true
					return
				}
			}
			return
		}
		c.emitTriangles()
	case FourClique:
		visit := c.pairAmongEmit
		if c.sink != nil {
			if c.boundSink != c.sink {
				c.boundSink = c.sink
				c.boundOnPair = c.sink.OnPair
			}
			visit = c.boundOnPair
		}
		if !c.isect.ForEachPairAmong(c.common, visit) {
			rowVisit := c.pairEmit
			if c.sink != nil {
				rowVisit = c.pairSink
			}
			for i := 0; i+1 < n && !c.stop; i++ {
				c.curI = i
				c.isect.ForEachAdjacentIn(c.common[i], c.common, i+1, rowVisit)
			}
		}
	case FiveClique:
		if n < 3 {
			return
		}
		c.buildRows(n)
		c.emitTriples(n)
	}
}

// emitTriangles runs the (collection-order) linear triangle emission into the
// generic callback.
func (c *completer) emitTriangles() {
	for i, w := range c.common {
		c.others[0], c.payloads[0] = graph.NewEdge(c.a, w), c.payA[i]
		c.others[1], c.payloads[1] = graph.NewEdge(c.b, w), c.payB[i]
		if !c.emit(2) {
			return
		}
	}
}

// buildRows fills the row scratch: for each common index i, the indexes j > i
// adjacent to common[i] with the cross-edge payloads. When n is inside the
// bitset window it also builds the symmetric adjacency masks the triple loop
// ANDs together.
func (c *completer) buildRows(n int) {
	if cap(c.rowStart) < n+1 {
		c.rowStart = make([]int32, n+1)
	}
	c.rowStart = c.rowStart[:n+1]
	c.rowJ = c.rowJ[:0]
	c.rowPay = c.rowPay[:0]
	c.maskW = 0
	if n >= bitsetMinCommon && n <= bitsetMaxCommon {
		words := (n + 63) >> 6
		need := n * words
		if cap(c.masks) < need {
			c.masks = make([]uint64, need)
		} else {
			c.masks = c.masks[:need]
			clear(c.masks)
		}
		c.maskW = words
	}
	c.rowStart[0] = 0
	c.curI = 0
	if c.isect.ForEachPairAmong(c.common, c.rowAppendPair) {
		for i := c.curI + 1; i <= n; i++ {
			c.rowStart[i] = int32(len(c.rowJ))
		}
		return
	}
	for i := 0; i < n; i++ {
		c.rowStart[i] = int32(len(c.rowJ))
		c.curI = i
		c.isect.ForEachAdjacentIn(c.common[i], c.common, i+1, c.rowAppend)
	}
	c.rowStart[n] = int32(len(c.rowJ))
}

// emitTriples enumerates 5-clique triples i < j < k by intersecting row i's
// suffix past j with row j — two sorted index lists — either by two-pointer
// merge or, inside the bitset window, by ANDing adjacency masks and walking
// the set bits with monotone payload cursors.
func (c *completer) emitTriples(n int) {
	for i := 0; i+2 < n; i++ {
		ri1 := int(c.rowStart[i+1])
		for p := int(c.rowStart[i]); p < ri1; p++ {
			j := int(c.rowJ[p])
			payIJ := c.rowPay[p]
			if c.maskW > 0 {
				if !c.emitTriplesBits(i, j, p, payIJ) {
					return
				}
				continue
			}
			x, y := p+1, int(c.rowStart[j])
			rj1 := int(c.rowStart[j+1])
			for x < ri1 && y < rj1 {
				kx, ky := c.rowJ[x], c.rowJ[y]
				switch {
				case kx < ky:
					x++
				case ky < kx:
					y++
				default:
					if !c.emitTriple(i, j, int(kx), payIJ, c.rowPay[x], c.rowPay[y]) {
						return
					}
					x++
					y++
				}
			}
		}
	}
}

// emitTriplesBits is the dense-bitset triple loop for a fixed (i, j) pair:
// every set bit past j in masks[i] AND masks[j] is a k completing the
// 5-clique; the payloads come from monotone cursors over rows i and j, which
// the mask guarantees contain k.
func (c *completer) emitTriplesBits(i, j, p int, payIJ any) bool {
	w := c.maskW
	bi, bj := i*w, j*w
	x, y := p+1, int(c.rowStart[j])
	ri1, rj1 := int(c.rowStart[i+1]), int(c.rowStart[j+1])
	start := j + 1
	for wi := start >> 6; wi < w; wi++ {
		word := c.masks[bi+wi] & c.masks[bj+wi]
		if wi == start>>6 {
			word &= ^uint64(0) << uint(start&63)
		}
		for word != 0 {
			k := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			for x < ri1 && int(c.rowJ[x]) < k {
				x++
			}
			for y < rj1 && int(c.rowJ[y]) < k {
				y++
			}
			if !c.emitTriple(i, j, k, payIJ, c.rowPay[x], c.rowPay[y]) {
				return false
			}
			x++
			y++
		}
	}
	return true
}

// emitTriple delivers one 5-clique instance to the sink or the generic
// callback, returning false when enumeration must stop.
func (c *completer) emitTriple(i, j, k int, payIJ, payIK, payJK any) bool {
	if c.sink != nil {
		if !c.sink.OnTriple(i, j, k, payIJ, payIK, payJK) {
			c.stop = true
			return false
		}
		return true
	}
	w, x, y := c.common[i], c.common[j], c.common[k]
	c.others[0], c.payloads[0] = graph.NewEdge(c.a, w), c.payA[i]
	c.others[1], c.payloads[1] = graph.NewEdge(c.b, w), c.payB[i]
	c.others[2], c.payloads[2] = graph.NewEdge(c.a, x), c.payA[j]
	c.others[3], c.payloads[3] = graph.NewEdge(c.b, x), c.payB[j]
	c.others[4], c.payloads[4] = graph.NewEdge(c.a, y), c.payA[k]
	c.others[5], c.payloads[5] = graph.NewEdge(c.b, y), c.payB[k]
	c.others[6], c.payloads[6] = graph.NewEdge(w, x), payIJ
	c.others[7], c.payloads[7] = graph.NewEdge(w, y), payIK
	c.others[8], c.payloads[8] = graph.NewEdge(x, y), payJK
	return c.emit(9)
}
