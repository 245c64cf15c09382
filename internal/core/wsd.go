// Package core implements the paper's primary contribution: the WSD weighted
// sampling framework for fully dynamic graph streams (Algorithm 1), its
// unbiased subgraph count estimator (Algorithm 2, Eqs. 11-13), and the MDP
// state extraction the RL weight function consumes (Section IV-A).
package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/reservoir"
	"repro/internal/stream"
	"repro/internal/weights"
	"repro/internal/window"
)

// Rand is the randomness source the counter draws its rank uniforms from.
// Both *math/rand.Rand and *xrand.Rand satisfy it; use *xrand.Rand when the
// counter must be checkpointable, since only its state can be captured in a
// Snapshot (see snapshot.go).
type Rand interface {
	Float64() float64
}

// TemporalAgg selects how the temporal state features v_j (Eq. 20) aggregate
// arrival indexes across the instances in Hk.
type TemporalAgg int

const (
	// AggMax is the paper's definition (Eq. 20): v_j is the maximum j-th
	// arrival index over instances. WSD-L (Max) in Table XIII.
	AggMax TemporalAgg = iota
	// AggAvg replaces max with the average, the WSD-L (Avg) ablation of
	// Table XIII.
	AggAvg
)

// Config configures a WSD counter.
type Config struct {
	// M is the reservoir capacity. Must be at least the largest counted
	// pattern's size for the estimators to be unbiased (Theorem 4's
	// precondition M >= |H|).
	M int
	// Pattern is the primary subgraph pattern H whose count is estimated:
	// the MDP state the weight function sees (completion count, temporal
	// features) is built from its completions.
	Pattern pattern.Kind
	// Secondary lists further patterns counted side by side over the same
	// sample. The sample is maintained once — one weight, one rank, one
	// eviction decision per event — so every secondary estimate is unbiased
	// by the same argument as the primary one: Lemma 1's inclusion
	// probabilities belong to the sample, not to the pattern, so Eqs.
	// (11)-(13) apply to each pattern independently. Must not repeat Pattern
	// or itself. Empty means single-pattern counting.
	Secondary []pattern.Kind
	// Weight is the weight function W(e, R). Nil means uniform.
	Weight weights.Func
	// TemporalAgg selects the v_j aggregation; the zero value is the paper's
	// max aggregation.
	TemporalAgg TemporalAgg
	// Rng drives the rank randomization. Required. Pass an *xrand.Rand to
	// make the counter fully checkpointable (Snapshot then captures the RNG
	// state so a restored counter resumes bit-identically).
	Rng Rand
	// SkipTemporal, when set, skips computing the temporal state features
	// v_1..v_|H| (Eq. 20): the weight sees an all-zero State.Temporal. The
	// topological features (Instances, DegU, DegV, Now) are unaffected, so
	// every built-in heuristic weight — which reads only those — produces
	// identical weights, identical sampling decisions, and identical
	// estimates, while the per-instance arrival collection and fold drop out
	// of the hot path. Leave unset for WSD-L: the learned policy consumes the
	// temporal features.
	SkipTemporal bool
	// Policy, when non-nil, annotates Weight as a learned policy: it records
	// the parameters and identity of the WSD-L actor behind the weight
	// function. It is metadata only — sampling consults Weight — but
	// snapshots embed it (v4) so a restore can rebuild the same learned
	// weight function without the caller re-supplying the artifact. Leave nil
	// for heuristic weight functions.
	Policy *PolicyParams
	// OnInstance, when non-nil, observes every primary-pattern instance the
	// estimator counts: sign is +1 for a formation (insertion event) and -1
	// for a destruction (deletion event); contribution is the
	// inverse-probability product added to or subtracted from the global
	// estimate; eventEdge is the edge whose event triggered the count and
	// others are the instance's remaining sampled edges (reused buffer — do
	// not retain). Extensions such as local (per-vertex) counting build on
	// this hook.
	OnInstance func(sign, contribution float64, eventEdge graph.Edge, others []graph.Edge)
	// EventWeight, when non-nil, scales every contribution the given event's
	// edge triggers — both formations on insert and destructions on delete,
	// for every pattern. Partitioned deployments use it to split an
	// instance's attribution across the partitions owning the completing
	// edge's endpoints (internal/partition.EventWeight), so summed
	// per-partition estimates stay unbiased. Nil means every contribution
	// counts at full weight.
	EventWeight func(e graph.Edge) float64
	// Temporal selects a temporal estimation mode — a sliding window over
	// the last Window insertion events or exponential decay with the given
	// Halflife, both measured in insertion-event time (see internal/window).
	// It applies to every counted pattern. The zero Spec is the whole-stream
	// estimation every prior version shipped; Window = math.MaxInt64 and
	// Halflife = +Inf degenerate to it bit for bit.
	Temporal window.Spec
}

// patterns returns every counted pattern, primary first.
func (c *Config) patterns() []pattern.Kind {
	return append([]pattern.Kind{c.Pattern}, c.Secondary...)
}

func (c *Config) validate() error {
	// Duplicates are refused by pattern.NewMultiCompleter in New.
	for _, p := range c.patterns() {
		if !p.Valid() {
			return fmt.Errorf("core: unknown pattern %d", int(p))
		}
		if c.M < p.Size() {
			return fmt.Errorf("core: M=%d is below pattern size |H|=%d for %s; the estimator requires M >= |H|", c.M, p.Size(), p)
		}
	}
	if c.Rng == nil {
		return fmt.Errorf("core: Config.Rng is required")
	}
	if err := c.Temporal.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// estimator is one counted pattern's running estimate and per-event scratch.
type estimator struct {
	kind     pattern.Kind
	estimate float64
	// prods collects one event's instance contributions so they can be
	// added to the estimate in sorted order: float addition is not
	// associative, so accumulating in enumeration order would tie the
	// estimate's last ULP to the enumeration order, breaking the
	// bit-identical checkpoint/resume guarantee if the order ever changes.
	prods     []float64
	instances int
	// sinkSum accumulates the contributions of a clique kind when the event
	// runs on the CliqueSink route.
	sinkSum float64
}

// Counter is the WSD subgraph counter: it consumes a fully dynamic edge
// stream one event at a time and maintains an unbiased estimate of the
// primary pattern count |J(t)| and of every secondary pattern's count, all
// over one weighted sample. Each event updates the sample once and walks the
// sampled adjacency once per pattern family — the clique patterns share one
// common-neighborhood collection — so counting P patterns costs far less
// than P independent counters.
//
// Counter is not safe for concurrent use; run one per goroutine. A Counter
// must not be copied after New: it holds internal callbacks bound to its own
// address.
type Counter struct {
	cfg Config

	res        *reservoir.Reservoir
	tauP, tauQ float64
	insertions int64 // t_k: number of insertion events processed

	// pats holds one estimator per counted pattern, primary first. comp
	// enumerates all of them in one pass per event; insertFns/deleteFns are
	// the prebuilt per-pattern instance callbacks, reading the current event
	// from curEdge. Building them once keeps the per-event path
	// allocation-free (a closure literal inside insert would escape on every
	// event). comp is held by value: as its own 24-byte heap object, read on
	// every event, it cost two-shard triangle churn 7-11% of its throughput
	// (x86-64, 2 vCPUs), a cache-line placement effect.
	pats      []estimator
	comp      pattern.MultiCompleter
	insertFns []func(others []graph.Edge, payloads []any) bool
	deleteFns []func(others []graph.Edge, payloads []any) bool
	curEdge   graph.Edge

	// Primary-pattern MDP state scratch, reused across events.
	temporal []float64
	arrivals []int64
	// acc holds the per-position fold of the current event's primary
	// instances (max under AggMax, sum under AggAvg), converted into
	// temporal once the enumeration is done.
	acc []int64

	// Clique fast-path state (the CliqueSink route): sink is non-nil unless
	// an OnInstance hook needs the materialized instances. gFac[i] caches
	// the combined inverse-probability factor of common neighbor i's two
	// event-edge-incident edges, so an instance's product is a few
	// multiplications instead of one clamped division per edge; while the
	// primary's temporal features are extracted (sinkTemporal), arrs[i]
	// holds the same two edges' arrival indexes, ordered. Each instance
	// merges those ordered pairs with its cross-edge arrivals in a fixed
	// min/max network and hands the sorted result to foldSorted. Each
	// clique kind's sinkSum accumulates in the canonical (ascending
	// common-ID) enumeration order, which is deterministic for a given
	// reservoir content — restore rebuilds the same sorted adjacency, so
	// checkpoint/resume stays bit-identical. triIdx/fourIdx/fiveIdx map each
	// sink callback to its pattern slot (-1 when not counted).
	sink                     pattern.CliqueSink
	gFac                     []float64
	arrs                     []arrivalPair
	sinkTemporal             bool
	triIdx, fourIdx, fiveIdx int

	// lastState records the most recent MDP state handed to the weight
	// function; exposed for the RL environment and for policy analysis.
	lastState weights.State

	// Temporal mode state (Config.Temporal). win is the sliding window's
	// edge ledger, non-nil only in window mode. decayStep/weightStep are
	// decay mode's per-insertion factors e^(-lambda) and e^(+lambda), zero
	// when decay is off; wScale is the running forward weight scale
	// e^(lambda * t), renormalized toward 1 before it can overflow so drawn
	// weights stay finite over unbounded streams.
	win        *window.Ring
	decayStep  float64
	weightStep float64
	wScale     float64
}

// New returns a WSD counter for the given configuration.
func New(cfg Config) (*Counter, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Weight == nil {
		cfg.Weight = weights.Uniform()
	}
	kinds := cfg.patterns()
	cfg.Secondary = kinds[1:]
	comp, err := pattern.NewMultiCompleter(kinds)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	h := cfg.Pattern.Size()
	c := &Counter{
		cfg:       cfg,
		res:       reservoir.New(cfg.M),
		pats:      make([]estimator, len(kinds)),
		comp:      *comp,
		insertFns: make([]func([]graph.Edge, []any) bool, len(kinds)),
		deleteFns: make([]func([]graph.Edge, []any) bool, len(kinds)),
		temporal:  make([]float64, h),
		arrivals:  make([]int64, 0, h),
		acc:       make([]int64, h-1),
		triIdx:    -1,
		fourIdx:   -1,
		fiveIdx:   -1,
	}
	for i, k := range kinds {
		c.pats[i].kind = k
		switch k {
		case pattern.Triangle:
			c.triIdx = i
		case pattern.FourClique:
			c.fourIdx = i
		case pattern.FiveClique:
			c.fiveIdx = i
		}
		c.insertFns[i] = func(others []graph.Edge, payloads []any) bool {
			return c.observeInsert(i, others, payloads)
		}
		c.deleteFns[i] = func(others []graph.Edge, payloads []any) bool {
			return c.observeDelete(i, others, payloads)
		}
	}
	if cfg.OnInstance == nil {
		c.sink = (*counterSink)(c)
	}
	c.wScale = 1
	if cfg.Temporal.Window > 0 {
		c.win = &window.Ring{}
	} else if lam := cfg.Temporal.Lambda(); lam > 0 {
		c.decayStep = math.Exp(-lam)
		c.weightStep = math.Exp(lam)
	}
	return c, nil
}

// Name identifies the algorithm for reports.
func (c *Counter) Name() string {
	if len(c.pats) > 1 {
		return "WSD-multi"
	}
	return "WSD"
}

// Estimate returns the current unbiased estimate of the primary pattern's
// count |J(t)| (Eq. 13).
func (c *Counter) Estimate() float64 { return c.pats[0].estimate }

// Patterns returns the counted patterns in estimator order, primary first
// (a copy).
func (c *Counter) Patterns() []pattern.Kind { return c.cfg.patterns() }

// EstimateOf returns the estimate for pattern p, and whether p is counted.
func (c *Counter) EstimateOf(p pattern.Kind) (float64, bool) {
	for i := range c.pats {
		if c.pats[i].kind == p {
			return c.pats[i].estimate, true
		}
	}
	return 0, false
}

// Estimates returns every pattern's estimate in Patterns order (a copy).
func (c *Counter) Estimates() []float64 { return c.EstimatesInto(nil) }

// NumEstimates returns the number of side-by-side estimates (the pattern
// count); with EstimatesInto it forms the vector-publication surface the
// ingestion layers use.
func (c *Counter) NumEstimates() int { return len(c.pats) }

// EstimatesInto appends every pattern's estimate to dst in Patterns order and
// returns it, allocation-free when dst has the capacity.
func (c *Counter) EstimatesInto(dst []float64) []float64 {
	for i := range c.pats {
		dst = append(dst, c.pats[i].estimate)
	}
	return dst
}

// SampleSize returns the current number of sampled edges.
func (c *Counter) SampleSize() int { return c.res.Len() }

// Reservoir exposes the underlying reservoir for analysis (e.g. the
// weight-relationship experiment). Callers must not mutate it.
func (c *Counter) Reservoir() *reservoir.Reservoir { return c.res }

// Process consumes one stream event, first updating the estimates per
// Algorithm 2 and then the sample per Algorithm 1. Infeasible events are
// ignored defensively.
func (c *Counter) Process(ev stream.Event) {
	if ev.Edge.IsLoop() {
		return
	}
	switch ev.Op {
	case stream.Insert:
		c.insert(ev.Edge)
	case stream.Delete:
		c.delete(ev.Edge)
	}
}

// ProcessBatch consumes a slice of events in order. It is semantically
// identical to calling Process once per event; it exists so the ingestion
// layer (shard.Ensemble's workers) can hand the counter a whole batch and
// amortize their per-event channel and publication overhead against many
// Process calls.
func (c *Counter) ProcessBatch(evs []stream.Event) {
	for _, ev := range evs {
		c.Process(ev)
	}
}

// observeInsert is the per-instance callback of the insertion estimator
// (Algorithm 2 lines 4-7) for pattern i: accumulate the product of inverse
// inclusion probabilities (Eq. 11) and, for the primary pattern, the
// temporal state features for this instance.
func (c *Counter) observeInsert(i int, others []graph.Edge, payloads []any) bool {
	// The inverse inclusion probability of a sampled edge is
	// 1/min(1, w/tau_q) = max(1, tau_q/w) (Lemma 1) — one division per edge.
	prod := 1.0
	tq := c.tauQ
	if i != 0 || c.cfg.SkipTemporal {
		for _, p := range payloads {
			it := p.(*reservoir.Item)
			if x := tq / it.Weight; x > 1 {
				prod *= x
			}
		}
	} else {
		arr := c.arrivals[:0]
		for _, p := range payloads {
			it := p.(*reservoir.Item)
			if x := tq / it.Weight; x > 1 {
				prod *= x
			}
			arr = append(arr, it.Arrival)
		}
		// Temporal features: the other edges sorted by arrival (positions
		// 1..|H|-1); position |H| is the new edge itself at t_k.
		c.foldArrivals(arr)
	}
	p := &c.pats[i]
	p.prods = append(p.prods, prod)
	p.instances++
	if i == 0 && c.cfg.OnInstance != nil {
		c.cfg.OnInstance(+1, prod, c.curEdge, others)
	}
	return true
}

// observeDelete is the per-instance callback of the deletion estimator
// (Eq. 12) for pattern i: the destroyed instance's contribution, no state
// extraction.
func (c *Counter) observeDelete(i int, others []graph.Edge, payloads []any) bool {
	prod := 1.0
	tq := c.tauQ
	for _, p := range payloads {
		it := p.(*reservoir.Item)
		if x := tq / it.Weight; x > 1 {
			prod *= x
		}
	}
	c.pats[i].prods = append(c.pats[i].prods, prod)
	if i == 0 && c.cfg.OnInstance != nil {
		c.cfg.OnInstance(-1, prod, c.curEdge, others)
	}
	return true
}

func (c *Counter) insert(e graph.Edge) {
	if c.win != nil && c.win.Has(e) {
		// Infeasible duplicate insertion: the edge is still live inside the
		// window. (Membership is checked before this tick's expiry, so an
		// edge whose previous copy ages out exactly now is still rejected —
		// the windowed oracle mirrors the same rule.)
		return
	}
	if _, ok := c.res.Get(e); ok {
		// Infeasible duplicate insertion; the problem definition forbids it.
		return
	}
	c.insertions++
	tk := c.insertions
	if c.win != nil {
		// Sliding window: replay edges older than tk - Window through the
		// proven deletion path before the new edge's completions are
		// enumerated, so expired edges can form no instances with it.
		for {
			old, ok := c.win.ExpireOne(tk - c.cfg.Temporal.Window)
			if !ok {
				break
			}
			c.deleteEdge(old)
		}
	} else if c.decayStep > 0 {
		// Exponential decay: one insertion tick ages every prior
		// contribution by e^(-lambda) before the new edge's mass enters at
		// factor 1 below; sampling weights grow by the inverse factor (see
		// the wScale draw further down) so recent edges out-rank old ones by
		// exactly the decay ratio.
		for i := range c.pats {
			c.pats[i].estimate *= c.decayStep
		}
		c.wScale *= c.weightStep
		if c.wScale > wScaleRenorm {
			c.renormalize()
		}
	}
	h := c.cfg.Pattern.Size()

	// Line 4-7 of Algorithm 2: enumerate the instances J with e in J and the
	// other edges sampled, adding the product of inverse inclusion
	// probabilities (Eq. 11). One pass serves every pattern — the clique
	// kinds share the common-neighborhood collection — and extracts the
	// primary pattern's MDP state features. Each pattern's contributions are
	// folded order-independently: clique kinds on the CliqueSink route in the
	// canonical enumeration order, every other kind through sumSorted. This
	// block and its deletion twin in deleteEdge stay inline: as one shared
	// helper they measured about 5% slower per event on triangle churn
	// (x86-64, 2 vCPUs).
	clear(c.acc)
	c.curEdge = e
	c.gFac, c.arrs = c.gFac[:0], c.arrs[:0]
	c.sinkTemporal = !c.cfg.SkipTemporal && c.cfg.Pattern.IsClique()
	c.comp.ForEach(c.res, e.U, e.V, c.insertFns, c.sink)
	scale := 1.0
	if c.cfg.EventWeight != nil {
		scale = c.cfg.EventWeight(e)
	}
	instances := c.pats[0].instances
	for i := range c.pats {
		p := &c.pats[i]
		sum := p.sinkSum
		if c.sink == nil || !p.kind.IsClique() {
			sum = sumSorted(p.prods)
		}
		p.estimate += scale * sum
		p.prods = p.prods[:0]
		p.sinkSum, p.instances = 0, 0
	}
	if !c.cfg.SkipTemporal {
		// Each position's max or sum of arrival indexes is an integer.
		// Below 2^53 (far above any event index, or one event's sum of
		// them) a per-instance float fold is exact at every step, so the
		// one conversion gives its value bit for bit. Every primary
		// instance folds one arrival into each position 1..|H|-1, so AggAvg
		// divides each by the instance count.
		for j, a := range c.acc {
			c.temporal[j] = float64(a)
			if c.cfg.TemporalAgg == AggAvg && instances > 0 {
				c.temporal[j] /= float64(instances)
			}
		}
		if instances > 0 {
			c.temporal[h-1] = float64(tk)
		} else {
			c.temporal[h-1] = 0
		}
	}

	c.lastState = weights.State{
		Instances: instances,
		DegU:      c.res.Degree(e.U),
		DegV:      c.res.Degree(e.V),
		Temporal:  c.temporal,
		Now:       tk,
	}

	if c.win != nil {
		// Every surviving insertion enters the ledger, sampled or not: the
		// deletion estimator (Eq. 12) updates on edges outside the
		// reservoir too, so expiry must replay every aged edge.
		c.win.Push(e, tk)
	}

	// Algorithm 1, insert(e): weight, rank, then Cases 1 and 2 — one
	// sampling decision for every counted pattern.
	w := weights.Sanitize(c.cfg.Weight(c.lastState))
	if c.wScale != 1 {
		// Decay mode: scale the drawn weight by e^(lambda * t) after
		// sanitization. tau_q shares the scaled units, so the estimator's
		// tau_q/w ratios are exactly the decay-discounted inclusion
		// probabilities.
		w *= c.wScale
	}
	u := 1 - c.cfg.Rng.Float64() // uniform in (0, 1]
	rank := w / u

	if !c.res.Full() {
		// Case 1: non-full reservoir; tau_p and tau_q are retained.
		if rank > c.tauP {
			// Case 1.1.
			c.res.PushValue(e, w, rank, tk)
		}
		// Case 1.2: discard.
		return
	}
	// Case 2: full reservoir. tau_p becomes the minimum sampled rank.
	em := c.res.Min()
	c.tauP = em.Rank
	switch {
	case rank > c.tauP:
		// Case 2.1: evict the minimum, include e, and raise tau_q to tau_p.
		c.res.PopMin()
		c.res.PushValue(e, w, rank, tk)
		c.tauQ = c.tauP
	case rank > c.tauQ:
		// Case 2.2: discard e but remember its rank as the new tau_q.
		c.tauQ = rank
	default:
		// Case 2.3: discard.
	}
}

// wScaleRenorm triggers decay-mode renormalization well before the forward
// weight scale e^(lambda * t) can overflow float64: drawn weights are at
// most 1e12 (weights.Sanitize) and 1e120 * 1e12 is far from the ~1.8e308
// ceiling. The trigger is a deterministic function of the insertion count,
// so a restored counter renormalizes at the same ticks and resumes
// bit-identically.
const wScaleRenorm = 1e120

// renormalize rescales every stored weight and rank, both thresholds, and
// the running scale by 1/wScale. Scaling by a positive constant preserves
// every rank comparison and every tau_q/weight ratio, so sampling decisions
// and estimator contributions are unchanged (up to one rounding ULP each,
// applied identically on every replay).
func (c *Counter) renormalize() {
	inv := 1 / c.wScale
	c.res.ScaleAll(inv)
	c.tauP *= inv
	c.tauQ *= inv
	c.wScale = 1
}

func (c *Counter) delete(e graph.Edge) {
	if c.win != nil && !c.win.Kill(e) {
		// The edge is not live in the window — it already expired or was
		// never inserted — so its instances left the estimate when expiry
		// replayed it. Applying the deletion again would subtract mass the
		// windowed estimate no longer holds.
		return
	}
	c.deleteEdge(e)
}

// deleteEdge is the deletion estimator shared by genuine stream deletions
// and window expiry (both are Case 3 of Algorithm 1 + Eq. 12).
func (c *Counter) deleteEdge(e graph.Edge) {
	// Eq. (12): subtract the destroyed instances, observed against the
	// reservoir just before the deletion is applied — the same pass as
	// insert's, without state extraction.
	c.curEdge = e
	c.gFac = c.gFac[:0]
	c.sinkTemporal = false
	c.comp.ForEach(c.res, e.U, e.V, c.deleteFns, c.sink)
	scale := 1.0
	if c.cfg.EventWeight != nil {
		scale = c.cfg.EventWeight(e)
	}
	for i := range c.pats {
		p := &c.pats[i]
		sum := p.sinkSum
		if c.sink == nil || !p.kind.IsClique() {
			sum = sumSorted(p.prods)
		}
		p.estimate -= scale * sum
		p.prods = p.prods[:0]
		p.sinkSum, p.instances = 0, 0
	}
	// Case 3: drop e from the reservoir if sampled; tau_p and tau_q are
	// retained.
	c.res.Remove(e)
}

// counterSink is Counter's pattern.CliqueSink implementation (a type alias
// trick: methods live on a converted *Counter, keeping the sink callbacks off
// Counter's public API). One OnCommon pass caches the shared per-common
// factors, then each clique kind's instances are folded into its own
// estimator's sinkSum as the enumerator discovers them — no per-instance
// edge slices, payload slices, or prods append.
type counterSink Counter

// arrivalPair is a common neighbor's two event-edge-incident arrival
// indexes in ascending order.
type arrivalPair [2]int64

// OnCommon caches common neighbor i's combined inverse-probability factor
// max(1, tau_q/w_a)·max(1, tau_q/w_b) (Lemma 1, one clamped division per
// incident edge) and, when the temporal features are being extracted, the two
// arrival indexes in ascending order.
func (s *counterSink) OnCommon(i int, w graph.VertexID, payA, payB any) {
	c := (*Counter)(s)
	ia := payA.(*reservoir.Item)
	ib := payB.(*reservoir.Item)
	tq := c.tauQ
	g := 1.0
	if x := tq * ia.InvWeight(); x > 1 {
		g *= x
	}
	if x := tq * ib.InvWeight(); x > 1 {
		g *= x
	}
	c.gFac = append(c.gFac, g)
	if c.sinkTemporal {
		c.arrs = append(c.arrs, arrivalPair{min(ia.Arrival, ib.Arrival), max(ia.Arrival, ib.Arrival)})
	}
}

func (s *counterSink) OnTriangle(i int) bool {
	c := (*Counter)(s)
	p := &c.pats[c.triIdx]
	p.sinkSum += c.gFac[i]
	p.instances++
	if c.sinkTemporal && c.triIdx == 0 {
		c.foldSorted(c.arrs[i][:])
	}
	return true
}

func (s *counterSink) OnPair(i, j int, payIJ any) bool {
	c := (*Counter)(s)
	p := &c.pats[c.fourIdx]
	it := payIJ.(*reservoir.Item)
	prod := c.gFac[i] * c.gFac[j]
	if x := c.tauQ * it.InvWeight(); x > 1 {
		prod *= x
	}
	p.sinkSum += prod
	p.instances++
	if c.sinkTemporal && c.fourIdx == 0 {
		// Merge the two ordered pairs, then insert the cross edge's arrival
		// from the top: five ascending values, no branches.
		s0, s1, s2, s3 := mergePairs(&c.arrs[i], &c.arrs[j])
		z := it.Arrival
		s4 := max(s3, z)
		z = min(s3, z)
		s3 = max(s2, z)
		z = min(s2, z)
		s2 = max(s1, z)
		z = min(s1, z)
		s1 = max(s0, z)
		s0 = min(s0, z)
		v := [5]int64{s0, s1, s2, s3, s4}
		c.foldSorted(v[:])
	}
	return true
}

func (s *counterSink) OnTriple(i, j, k int, payIJ, payIK, payJK any) bool {
	c := (*Counter)(s)
	p := &c.pats[c.fiveIdx]
	iij := payIJ.(*reservoir.Item)
	iik := payIK.(*reservoir.Item)
	ijk := payJK.(*reservoir.Item)
	tq := c.tauQ
	prod := c.gFac[i] * c.gFac[j] * c.gFac[k]
	if x := tq * iij.InvWeight(); x > 1 {
		prod *= x
	}
	if x := tq * iik.InvWeight(); x > 1 {
		prod *= x
	}
	if x := tq * ijk.InvWeight(); x > 1 {
		prod *= x
	}
	p.sinkSum += prod
	p.instances++
	if c.sinkTemporal && c.fiveIdx == 0 {
		// Merge the first two ordered pairs, then insert the third pair and
		// the three cross arrivals one by one.
		ck := &c.arrs[k]
		var v [9]int64
		v[0], v[1], v[2], v[3] = mergePairs(&c.arrs[i], &c.arrs[j])
		insertSorted(v[:5], ck[0])
		insertSorted(v[:6], ck[1])
		insertSorted(v[:7], iij.Arrival)
		insertSorted(v[:8], iik.Arrival)
		insertSorted(v[:9], ijk.Arrival)
		c.foldSorted(v[:])
	}
	return true
}

// mergePairs merges two ordered arrival pairs into their four values in
// ascending order: the outer two fall out of one compare each, the middle
// two need a third.
func mergePairs(a, b *arrivalPair) (s0, s1, s2, s3 int64) {
	s0, x := min(a[0], b[0]), max(a[0], b[0])
	y, s3 := min(a[1], b[1]), max(a[1], b[1])
	return s0, min(x, y), max(x, y), s3
}

// insertSorted inserts z into v, whose first len(v)-1 values ascend, by a
// min/max pass from the top: afterwards all of v ascends.
func insertSorted(v []int64, z int64) {
	for n := len(v) - 1; n > 0; n-- {
		v[n] = max(v[n-1], z)
		z = min(v[n-1], z)
	}
	v[0] = z
}

// foldArrivals sorts one primary-pattern instance's arrival indexes and folds
// them with foldSorted: the materializing path's Eq. 20 extraction. An
// instance has at most 9 edge arrivals, so an in-place insertion sort beats
// the generic sort's set-up.
func (c *Counter) foldArrivals(arr []int64) {
	for i := 1; i < len(arr); i++ {
		for j := i; j > 0 && arr[j] < arr[j-1]; j-- {
			arr[j], arr[j-1] = arr[j-1], arr[j]
		}
	}
	c.foldSorted(arr)
}

// foldSorted aggregates one primary-pattern instance's arrival indexes,
// ascending, into the per-position accumulators of the temporal state
// features (Eq. 20): the j-th smallest arrival goes to position j, kept as a
// maximum (AggMax) or added to a sum that insert averages (AggAvg).
func (c *Counter) foldSorted(v []int64) {
	acc := c.acc[:len(v)]
	switch c.cfg.TemporalAgg {
	case AggMax:
		for j, a := range v {
			acc[j] = max(acc[j], a)
		}
	case AggAvg:
		for j, a := range v {
			acc[j] += a
		}
	}
}

// sumSorted sorts prods in place and returns their sum: the order-independent
// fold of one event's instance contributions, so the total does not depend
// on the order the enumeration visited them in. Without this, float
// non-associativity makes estimates differ in their last ULP between
// identical runs, which the bit-identical checkpoint/resume tests would
// catch as divergence.
func sumSorted(prods []float64) float64 {
	if len(prods) > 1 {
		sort.Float64s(prods)
	}
	sum := 0.0
	for _, p := range prods {
		sum += p
	}
	return sum
}
