// Package sampling implements every comparison algorithm from the paper's
// evaluation: the weighted priority-sampling family (GPS for insertion-only
// streams, Section III-A; GPS-A with lazy deletions, Section III-B) and the
// uniform-sampling baselines for fully dynamic streams (TRIEST-FD, ThinkD,
// WRS). Each sampler pairs its sampling scheme with the corresponding
// unbiased subgraph-count estimator and exposes the same
// Process/Estimate surface as the WSD counter in package core.
package sampling

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/reservoir"
	"repro/internal/stream"
	"repro/internal/weights"
)

// GPSConfig configures a GPS or GPS-A sampler.
type GPSConfig struct {
	// M is the reservoir capacity; must be at least Pattern.Size().
	M int
	// Pattern is the subgraph pattern H whose count is estimated.
	Pattern pattern.Kind
	// Weight is the weight function W(e, R); nil means the GPS default
	// heuristic 9*|H(e)|+1.
	Weight weights.Func
	// Rng drives rank randomization. Required.
	Rng *rand.Rand
}

func (c *GPSConfig) validate() error {
	if c.M < c.Pattern.Size() {
		return fmt.Errorf("sampling: M=%d below pattern size |H|=%d", c.M, c.Pattern.Size())
	}
	if c.Rng == nil {
		return fmt.Errorf("sampling: GPSConfig.Rng is required")
	}
	return nil
}

// GPS is the graph priority sampling framework of Ahmed et al. for
// insertion-only streams (Section III-A): rank r = w/u, keep the top-M ranks,
// estimate with inclusion probability min(1, w/r_{M+1}) where r_{M+1} is the
// (M+1)-th largest rank observed, tracked as the maximum rank ever rejected
// or evicted.
//
// GPS ignores deletion events: the paper shows (Example 1) that applying it
// to fully dynamic streams breaks the inclusion-probability guarantee. Use
// GPSA or core.Counter (WSD) for streams with deletions.
type GPS struct {
	cfg        GPSConfig
	res        *reservoir.Reservoir
	z          float64 // r_{M+1}: max rank ever rejected or evicted
	estimate   float64
	insertions int64
	temporal   []float64
	arrivals   []float64
	lastState  weights.State
	enum       *enumerator
	sign       float64 // the current event's direction, read by observe
}

// NewGPS returns a GPS sampler.
func NewGPS(cfg GPSConfig) (*GPS, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Weight == nil {
		cfg.Weight = weights.GPSDefault()
	}
	g := &GPS{
		cfg:      cfg,
		res:      reservoir.New(cfg.M),
		temporal: make([]float64, cfg.Pattern.Size()),
		arrivals: make([]float64, 0, cfg.Pattern.Size()),
	}
	g.enum = newEnumerator(cfg.Pattern, g.observe)
	return g, nil
}

// Name identifies the algorithm for reports.
func (g *GPS) Name() string { return "GPS" }

// Estimate returns the current estimate (Eq. 4).
func (g *GPS) Estimate() float64 { return g.estimate }

// SampleSize returns the number of sampled edges.
func (g *GPS) SampleSize() int { return g.res.Len() }

func (g *GPS) inclusionProb(it *reservoir.Item) float64 {
	if g.z <= 0 {
		return 1
	}
	p := it.Weight / g.z
	if p > 1 {
		return 1
	}
	return p
}

// Process consumes one event. Deletions are ignored (see type comment).
func (g *GPS) Process(ev stream.Event) {
	if ev.Op != stream.Insert || ev.Edge.IsLoop() {
		return
	}
	g.insert(ev.Edge, g.res)
}

// insert runs the shared GPS insertion step: estimator update against view,
// then the priority-sampling step. GPS-A reuses it with the live view for
// enumeration.
func (g *GPS) insert(e graph.Edge, view pattern.ItemView) {
	if _, ok := g.res.Get(e); ok {
		return
	}
	g.insertions++
	state := g.estimateArrival(e, view, +1)
	w := weights.Sanitize(g.cfg.Weight(state))
	u := 1 - g.cfg.Rng.Float64()
	rank := w / u
	if !g.res.Full() {
		g.res.PushValue(e, w, rank, g.insertions)
		return
	}
	if rank > g.res.Min().Rank {
		if evicted := g.res.PopMin(); evicted.Rank > g.z {
			g.z = evicted.Rank
		}
		g.res.PushValue(e, w, rank, g.insertions)
	} else if rank > g.z {
		g.z = rank
	}
}

// estimateArrival enumerates the pattern instances the event edge completes
// (or destroys, for sign = -1) against view, applies the inverse-probability
// update to the estimate, and returns the MDP state observed, which doubles
// as the input to weight heuristics.
func (g *GPS) estimateArrival(e graph.Edge, view pattern.ItemView, sign float64) weights.State {
	h := g.cfg.Pattern.Size()
	for j := range g.temporal {
		g.temporal[j] = 0
	}
	g.sign = sign
	instances := g.enum.run(view, e)
	if instances > 0 {
		g.temporal[h-1] = float64(g.insertions)
	} else {
		g.temporal[h-1] = 0
	}
	return weights.State{
		Instances: instances,
		DegU:      view.Degree(e.U),
		DegV:      view.Degree(e.V),
		Temporal:  g.temporal,
		Now:       g.insertions,
	}
}

// observe is the per-instance callback of estimateArrival: it adds the
// instance's inverse-probability product with the event's sign and folds
// the instance's arrival indexes into the temporal state features. Both GPS
// views (the reservoir and its live view) carry each edge's item as the
// payload.
func (g *GPS) observe(_ []graph.Edge, payloads []any) bool {
	prod := 1.0
	arr := g.arrivals[:0]
	for _, p := range payloads {
		it := p.(*reservoir.Item)
		prod *= 1 / g.inclusionProb(it)
		arr = append(arr, float64(it.Arrival))
	}
	g.estimate += g.sign * prod
	sort.Float64s(arr)
	for j, a := range arr {
		if a > g.temporal[j] {
			g.temporal[j] = a
		}
	}
	return true
}

// GPSA is the GPS-A framework of Section III-B: GPS sampling with lazy
// deletions. A deletion event attaches a DEL tag to the sampled edge instead
// of removing it; tagged edges keep occupying reservoir slots (the framework's
// documented drawback) and the estimator enumerates only untagged edges
// (Eqs. 6-8).
type GPSA struct {
	gps *GPS
}

// NewGPSA returns a GPS-A sampler.
func NewGPSA(cfg GPSConfig) (*GPSA, error) {
	g, err := NewGPS(cfg)
	if err != nil {
		return nil, err
	}
	return &GPSA{gps: g}, nil
}

// Name identifies the algorithm for reports.
func (a *GPSA) Name() string { return "GPS-A" }

// Estimate returns the current estimate (Eq. 8).
func (a *GPSA) Estimate() float64 { return a.gps.estimate }

// SampleSize returns the number of reservoir slots in use, including
// DEL-tagged ones (they are the framework's wasted space).
func (a *GPSA) SampleSize() int { return a.gps.res.Len() }

// LiveSampleSize returns the number of untagged sampled edges.
func (a *GPSA) LiveSampleSize() int {
	n := 0
	for _, it := range a.gps.res.Items() {
		if !it.Deleted {
			n++
		}
	}
	return n
}

// Process consumes one event.
func (a *GPSA) Process(ev stream.Event) {
	if ev.Edge.IsLoop() {
		return
	}
	switch ev.Op {
	case stream.Insert:
		// Estimator and weights see only live edges; sampling competition
		// still includes tagged edges.
		a.gps.insert(ev.Edge, a.gps.res.Live())
	case stream.Delete:
		a.gps.estimateArrival(ev.Edge, a.gps.res.Live(), -1)
		if it, ok := a.gps.res.Get(ev.Edge); ok {
			a.gps.res.SetDeleted(it, true)
		}
	}
}
