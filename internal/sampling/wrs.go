package sampling

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/stream"
)

// WRSConfig configures the WRS sampler.
type WRSConfig struct {
	UniformConfig
	// Alpha is the fraction of the budget dedicated to the waiting room
	// (most recent edges, stored unconditionally). Zero means the WRS paper's
	// default of 0.1.
	Alpha float64
}

// WRS is waiting room sampling (Shin; Lee, Shin, Faloutsos) extended to fully
// dynamic streams: the budget M is split into a FIFO waiting room holding the
// alpha*M most recent edges with probability 1 (exploiting temporal locality
// — recent edges co-occur in instances disproportionately often) and a
// random-pairing reservoir uniformly sampling the edges that have exited the
// waiting room. The estimate is updated on every event; an instance's
// correction factor is the inverse joint probability of its reservoir-resident
// edges only (waiting-room edges contribute probability 1).
type WRS struct {
	cfg      WRSConfig
	wrCap    int
	wrQueue  []graph.Edge // FIFO with tombstones
	wrSet    map[graph.Edge]struct{}
	rp       *rpSample // its adjacency also links the waiting room's edges
	estimate float64
	enum     *enumerator
	sign     float64 // the current event's direction, read by observe
}

// NewWRS returns a WRS sampler.
func NewWRS(cfg WRSConfig) (*WRS, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.1
	}
	if cfg.Alpha < 0 || cfg.Alpha >= 1 {
		return nil, fmt.Errorf("sampling: WRS alpha must be in [0, 1), got %v", cfg.Alpha)
	}
	wrCap := int(cfg.Alpha * float64(cfg.M))
	if wrCap < 1 {
		wrCap = 1
	}
	resCap := cfg.M - wrCap
	if resCap < cfg.Pattern.Size() {
		return nil, fmt.Errorf("sampling: WRS reservoir share %d below pattern size; lower alpha or raise M", resCap)
	}
	w := &WRS{
		cfg:   cfg,
		wrCap: wrCap,
		wrSet: make(map[graph.Edge]struct{}, wrCap),
		rp:    newRPSample(resCap, cfg.Rng),
	}
	w.enum = newEnumerator(cfg.Pattern, w.observe)
	return w, nil
}

// Name identifies the algorithm for reports.
func (w *WRS) Name() string { return "WRS" }

// Estimate returns the current estimate.
func (w *WRS) Estimate() float64 { return w.estimate }

// SampleSize returns the total number of stored edges (waiting room plus
// reservoir).
func (w *WRS) SampleSize() int { return len(w.wrSet) + w.rp.len() }

// Process consumes one stream event.
func (w *WRS) Process(ev stream.Event) {
	if ev.Edge.IsLoop() {
		return
	}
	switch ev.Op {
	case stream.Insert:
		if w.rp.adj.Has(ev.Edge) {
			return
		}
		w.updateEstimate(ev.Edge, +1)
		w.admit(ev.Edge)
	case stream.Delete:
		w.updateEstimate(ev.Edge, -1)
		w.evictDeleted(ev.Edge)
	}
}

// updateEstimate enumerates instances completed/destroyed by e against all
// stored edges; each instance contributes the inverse joint probability of
// its reservoir-resident edges (waiting-room edges are deterministic).
func (w *WRS) updateEstimate(e graph.Edge, sign float64) {
	w.sign = sign
	w.enum.run(w.rp.adj, e)
}

// observe is updateEstimate's per-instance callback.
func (w *WRS) observe(others []graph.Edge, _ []any) bool {
	k := 0
	for _, oe := range others {
		if _, inWR := w.wrSet[oe]; !inWR {
			k++
		}
	}
	if inv := w.rp.jointInverseProb(k); inv > 0 {
		w.estimate += w.sign * inv
	}
	return true
}

// admit pushes e into the waiting room, spilling the oldest resident into the
// reservoir's population when over capacity.
func (w *WRS) admit(e graph.Edge) {
	w.wrQueue = append(w.wrQueue, e)
	w.wrSet[e] = struct{}{}
	w.rp.adj.Add(e)
	for len(w.wrSet) > w.wrCap {
		old, ok := w.popOldest()
		if !ok {
			return
		}
		// The spilled edge leaves deterministic storage and joins the
		// reservoir's population; random pairing decides whether it stays
		// sampled.
		w.rp.adj.Remove(old)
		w.rp.insert(old)
	}
}

// popOldest removes and returns the oldest live waiting-room edge, skipping
// tombstones left by deletions.
func (w *WRS) popOldest() (graph.Edge, bool) {
	for len(w.wrQueue) > 0 {
		e := w.wrQueue[0]
		w.wrQueue = w.wrQueue[1:]
		if _, ok := w.wrSet[e]; ok {
			delete(w.wrSet, e)
			return e, true
		}
	}
	return graph.Edge{}, false
}

// evictDeleted handles a deletion event for edge e in whichever region holds
// it.
func (w *WRS) evictDeleted(e graph.Edge) {
	if _, ok := w.wrSet[e]; ok {
		// Deleted while in the waiting room: it never entered the reservoir
		// population, so random pairing is not involved.
		delete(w.wrSet, e)
		w.rp.adj.Remove(e)
		return
	}
	// The edge left the waiting room earlier (every insertion passes through
	// it), so it belongs to the reservoir's population.
	w.rp.remove(e)
}
