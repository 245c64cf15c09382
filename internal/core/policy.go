package core

import (
	"fmt"
	"math"

	"repro/internal/weights"
)

// PolicyParams identifies and parameterizes a learned linear weight policy
// (WSD-L, Section IV): the actor's single dense layer flattened to a weight
// vector and bias, plus a short content-derived ID. It is pure data — the
// counter never evaluates it; sampling consults only Config.Weight — but
// snapshots embed it (format v4) so a restore can rebuild the exact weight
// function that produced the sample, and serving layers report it so
// operators can see which policy a live counter runs.
type PolicyParams struct {
	// ID is a short content hash over (W, B); equal parameters always yield
	// equal IDs, so a snapshot-embedded policy and the artifact it came from
	// agree on identity without carrying provenance into the snapshot.
	ID string `json:"id"`
	// W is the actor weight vector, one entry per MDP state feature
	// (weights.VectorDim of the pattern size).
	W []float64 `json:"w"`
	// B is the actor bias.
	B float64 `json:"b"`
}

// Clone returns a deep copy, nil for nil.
func (p *PolicyParams) Clone() *PolicyParams {
	if p == nil {
		return nil
	}
	c := &PolicyParams{ID: p.ID, W: make([]float64, len(p.W)), B: p.B}
	copy(c.W, p.W)
	return c
}

func (p *PolicyParams) validate() error {
	if len(p.W) == 0 {
		return fmt.Errorf("core: policy params have an empty weight vector")
	}
	for i, w := range p.W {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("core: policy weight %d is not finite", i)
		}
	}
	if math.IsNaN(p.B) || math.IsInf(p.B, 0) {
		return fmt.Errorf("core: policy bias is not finite")
	}
	return nil
}

// SetWeight replaces the weight function governing future sampling decisions.
// The reservoir, thresholds, estimate, and RNG state are untouched: ranks
// already drawn keep their values, so the estimator stays unbiased for any
// positive weight function (Theorem 4 conditions only on the weights used at
// each event's own draw). skipTemporal sets Config.SkipTemporal for future
// events — pass false whenever w consumes the temporal features. params
// records the identity of the new weight function for snapshots and
// inspection (nil when w is a heuristic).
//
// Like Process, SetWeight must not race with other calls on the counter; the
// caller serializes (sharded deployments use the ensemble's quiesce barrier).
func (c *Counter) SetWeight(w weights.Func, skipTemporal bool, params *PolicyParams) {
	if w == nil {
		w = weights.Uniform()
	}
	c.cfg.Weight = w
	c.cfg.SkipTemporal = skipTemporal
	c.cfg.Policy = params.Clone()
}

// ActivePolicy returns the policy annotation recorded by Config.Policy or the
// last SetWeight, nil when the counter runs a heuristic weight function. The
// returned value is shared — callers must not mutate it.
func (c *Counter) ActivePolicy() *PolicyParams { return c.cfg.Policy }
