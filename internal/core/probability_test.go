package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/stream"
	"repro/internal/weights"
)

// TestInclusionProbabilityModel validates Lemma 1 empirically beyond the
// equal-weights case: for edges with heterogeneous weights, the observed
// inclusion frequency over many samplings must match the model probability
// E[min(1, w/tau_q)] the estimator divides by. The check compares, per
// tracked edge, the empirical inclusion rate against the mean model
// probability computed from each trial's realized (w, tau_q).
func TestInclusionProbabilityModel(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial statistical test")
	}
	// Deterministic weights per edge index: a mix of 1x and 10x weights.
	weightOf := func(i int) float64 {
		if i%7 == 0 {
			return 10
		}
		return 1
	}
	const n = 120
	const m = 30
	var s stream.Stream
	for i := 0; i < n; i++ {
		s = append(s, stream.Event{Op: stream.Insert, Edge: graph.NewEdge(graph.VertexID(i), graph.VertexID(i+1000))})
	}
	// A few deletions in the middle exercise Case 3 and the frozen
	// thresholds.
	dels := stream.Stream{
		{Op: stream.Delete, Edge: graph.NewEdge(5, 1005)},
		{Op: stream.Delete, Edge: graph.NewEdge(12, 1012)},
	}
	full := append(append(stream.Stream{}, s[:80]...), dels...)
	full = append(full, s[80:]...)

	tracked := []graph.Edge{
		graph.NewEdge(3, 1003),   // weight 1, early
		graph.NewEdge(7, 1007),   // weight 10, early
		graph.NewEdge(70, 1070),  // weight 1, pre-deletion
		graph.NewEdge(84, 1084),  // weight 10 (84 = 7*12), post-deletion
		graph.NewEdge(110, 1110), // weight 1, late
	}

	const trials = 8000
	incl := make(map[graph.Edge]int)
	modelSum := make(map[graph.Edge]float64)
	idx := 0
	weightFn := func(st weights.State) float64 {
		w := weightOf(idx)
		return w
	}
	for trial := 0; trial < trials; trial++ {
		c, err := New(Config{M: m, Pattern: pattern.Wedge, Weight: weightFn,
			Rng: rand.New(rand.NewSource(int64(trial)*991 + 7))})
		if err != nil {
			t.Fatal(err)
		}
		idx = 0
		for _, ev := range full {
			c.Process(ev)
			if ev.Op == stream.Insert {
				idx++
			}
		}
		tauQ := c.tauQ
		for _, e := range tracked {
			if _, ok := c.Reservoir().Get(e); ok {
				incl[e]++
			}
			// Model probability for this trial's realized tau_q; the edge's
			// weight is deterministic by construction.
			w := weightOf(int(e.U))
			p := 1.0
			if tauQ > 0 {
				p = math.Min(1, w/tauQ)
			}
			modelSum[e] += p
		}
	}
	for _, e := range tracked {
		got := float64(incl[e]) / trials
		want := modelSum[e] / trials
		if math.Abs(got-want) > 0.03 {
			t.Errorf("edge %v (w=%v): empirical inclusion %.3f, model %.3f",
				e, weightOf(int(e.U)), got, want)
		}
	}
}
