package sampling

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/stream"
)

// UniformConfig configures the uniform-sampling baselines (TRIEST-FD, ThinkD,
// WRS).
type UniformConfig struct {
	// M is the storage budget in edges; must be at least Pattern.Size().
	M int
	// Pattern is the subgraph pattern H whose count is estimated.
	Pattern pattern.Kind
	// Rng drives the sampling coins. Required.
	Rng *rand.Rand
}

func (c *UniformConfig) validate() error {
	if c.M < c.Pattern.Size() {
		return fmt.Errorf("sampling: M=%d below pattern size |H|=%d", c.M, c.Pattern.Size())
	}
	if c.Rng == nil {
		return fmt.Errorf("sampling: UniformConfig.Rng is required")
	}
	return nil
}

// Triest is TRIEST-FD (De Stefani et al.): random pairing for storage, an
// in-sample instance counter tau updated only when the sample itself mutates,
// and a query-time scale-up by the inverse probability that all |H| edges of
// an instance are sampled:
//
//	estimate = tau * prod_{j=0}^{|H|-1} (W-j)/(omega-j),
//	W = s + d_i + d_o, omega = min(M, W).
//
// The paper generalizes TRIEST from triangles to arbitrary patterns H; tau
// counts instances entirely inside the sample.
type Triest struct {
	cfg UniformConfig
	rp  *rpSample
	tau int64
}

// NewTriest returns a TRIEST-FD sampler.
func NewTriest(cfg UniformConfig) (*Triest, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &Triest{cfg: cfg, rp: newRPSample(cfg.M, cfg.Rng)}
	count := newEnumerator(cfg.Pattern, nil)
	t.rp.onAdd = func(e graph.Edge) {
		// Count instances e completes with edges already in the sample;
		// runs before e is linked, so e itself is excluded naturally.
		t.tau += int64(count.run(t.rp.adj, e))
	}
	t.rp.onRemove = func(e graph.Edge) {
		// Runs after e is unlinked: count instances e completed with the
		// remaining sampled edges and remove them.
		t.tau -= int64(count.run(t.rp.adj, e))
	}
	return t, nil
}

// Name identifies the algorithm for reports.
func (t *Triest) Name() string { return "Triest" }

// SampleSize returns the number of sampled edges.
func (t *Triest) SampleSize() int { return t.rp.len() }

// Estimate returns the scaled-up in-sample count.
func (t *Triest) Estimate() float64 {
	if t.tau == 0 {
		return 0
	}
	inv := t.rp.jointInverseProb(t.cfg.Pattern.Size())
	return float64(t.tau) * inv
}

// Process consumes one stream event.
func (t *Triest) Process(ev stream.Event) {
	if ev.Edge.IsLoop() {
		return
	}
	switch ev.Op {
	case stream.Insert:
		if t.rp.contains(ev.Edge) {
			return
		}
		t.rp.insert(ev.Edge)
	case stream.Delete:
		t.rp.remove(ev.Edge)
	}
}

// ThinkD is the ThinkD algorithm (Shin et al., "Think before you discard"):
// the same random-pairing storage as TRIEST-FD, but the estimate is updated
// on every event before the sampling decision, using the arriving (or
// departing) edge itself plus its sampled co-instance edges. Each discovered
// instance needs only its |H|-1 other edges sampled, so the correction factor
// is prod_{j=0}^{|H|-2} (W-j)/(omega-j) — a strictly smaller variance than
// TRIEST's |H|-edge factor.
type ThinkD struct {
	cfg      UniformConfig
	rp       *rpSample
	count    *enumerator
	estimate float64
}

// NewThinkD returns a ThinkD sampler.
func NewThinkD(cfg UniformConfig) (*ThinkD, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &ThinkD{cfg: cfg, rp: newRPSample(cfg.M, cfg.Rng), count: newEnumerator(cfg.Pattern, nil)}, nil
}

// Name identifies the algorithm for reports.
func (t *ThinkD) Name() string { return "ThinkD" }

// SampleSize returns the number of sampled edges.
func (t *ThinkD) SampleSize() int { return t.rp.len() }

// Estimate returns the current estimate.
func (t *ThinkD) Estimate() float64 { return t.estimate }

// Process consumes one stream event.
func (t *ThinkD) Process(ev stream.Event) {
	if ev.Edge.IsLoop() {
		return
	}
	switch ev.Op {
	case stream.Insert:
		if t.rp.contains(ev.Edge) {
			return
		}
		t.updateEstimate(ev.Edge, +1)
		t.rp.insert(ev.Edge)
	case stream.Delete:
		t.updateEstimate(ev.Edge, -1)
		t.rp.remove(ev.Edge)
	}
}

func (t *ThinkD) updateEstimate(e graph.Edge, sign float64) {
	inv := t.rp.jointInverseProb(t.cfg.Pattern.Size() - 1)
	if inv == 0 {
		return
	}
	t.estimate += sign * inv * float64(t.count.run(t.rp.adj, e))
}
