package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/stream"
	"repro/internal/weights"
	"repro/internal/window"
	"repro/internal/xrand"
)

// TestTemporalFoldEquivalence pins the clique sink's temporal-feature fold
// against the materializing path. A plain counter runs the CliqueSink route,
// where each instance merges its common neighbors' ordered arrival pairs and
// cross-edge arrivals in a fixed min/max network before the fold. A twin with
// a no-op OnInstance hook must materialize every instance and sort its
// arrivals in foldArrivals. The weight reads the temporal features, so a
// wrong feature would also fork the two samples. After every event both
// counters must report the same MDP state, the features compared bit for
// bit, over triangle, 4-clique and 5-clique primaries, both aggregations,
// and insert-only, light-deletion and sliding-window histories.
func TestTemporalFoldEquivalence(t *testing.T) {
	weight := func(s weights.State) float64 {
		w := 1 + 0.25*float64(s.Instances) + 0.01*float64(s.DegU+s.DegV)
		for j, v := range s.Temporal {
			w += 1e-3 * float64(j+1) * v / float64(s.Now)
		}
		return w
	}
	histories := []struct {
		name   string
		betaL  float64
		window int64
	}{
		{"insert-only", 0, 0},
		{"light-deletion", 0.2, 0},
		{"window", 0.1, 150},
	}
	for _, kind := range []pattern.Kind{pattern.Triangle, pattern.FourClique, pattern.FiveClique} {
		for _, agg := range []TemporalAgg{AggMax, AggAvg} {
			for hi, h := range histories {
				t.Run(fmt.Sprintf("%s/agg=%d/%s", kind, agg, h.name), func(t *testing.T) {
					for seed := int64(1); seed <= 3; seed++ {
						rng := rand.New(rand.NewSource(100*seed + int64(hi)))
						edges := gen.PlantedPartition(3, 14, 0.8, 0.03, rng)
						s := stream.InsertOnly(edges)
						if h.betaL > 0 {
							s = stream.LightDeletion(edges, h.betaL, rng)
						}
						build := func(hook func(float64, float64, graph.Edge, []graph.Edge)) *Counter {
							c, err := New(Config{
								M: 160, Pattern: kind, Weight: weight, TemporalAgg: agg,
								Rng: xrand.New(seed), OnInstance: hook,
								Temporal: window.Spec{Window: h.window},
							})
							if err != nil {
								t.Fatal(err)
							}
							return c
						}
						sink := build(nil)
						mat := build(func(float64, float64, graph.Edge, []graph.Edge) {})
						folded := 0
						for i, ev := range s {
							sink.Process(ev)
							mat.Process(ev)
							a, b := sink.lastState, mat.lastState
							if a.Instances != b.Instances || a.DegU != b.DegU || a.DegV != b.DegV || a.Now != b.Now {
								t.Fatalf("seed %d, event %d: sink state %+v, materialized %+v", seed, i, a, b)
							}
							for j := range b.Temporal {
								if math.Float64bits(a.Temporal[j]) != math.Float64bits(b.Temporal[j]) {
									t.Fatalf("seed %d, event %d: Temporal[%d] sink %v, materialized %v (all: %v vs %v)",
										seed, i, j, a.Temporal[j], b.Temporal[j], a.Temporal, b.Temporal)
								}
							}
							if ev.Op == stream.Insert && a.Instances > 1 {
								folded++
							}
						}
						if folded == 0 {
							t.Fatalf("seed %d: no insertion completed two or more instances; the history exercises no merge", seed)
						}
					}
				})
			}
		}
	}
}
