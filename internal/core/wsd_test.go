package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/stream"
	"repro/internal/weights"
)

func testStream(t *testing.T, seed int64, n int, betaL float64) stream.Stream {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := gen.BarabasiAlbert(n, 3, rng)
	if betaL == 0 {
		return stream.InsertOnly(edges)
	}
	return stream.LightDeletion(edges, betaL, rng)
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := New(Config{M: 2, Pattern: pattern.Triangle, Rng: rng}); err == nil {
		t.Fatal("expected error for M < |H|")
	}
	if _, err := New(Config{M: 10, Pattern: pattern.Triangle}); err == nil {
		t.Fatal("expected error for nil Rng")
	}
	if _, err := New(Config{M: 10, Pattern: pattern.Triangle, Rng: rng}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestExactWhenReservoirHoldsEverything: with M at least the stream size every
// edge is sampled with probability 1, so the estimate must equal the exact
// count at every point.
func TestExactWhenReservoirHoldsEverything(t *testing.T) {
	for _, k := range pattern.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			s := testStream(t, 7, 200, 0.2)
			c, err := New(Config{M: len(s) + 1, Pattern: k, Rng: rand.New(rand.NewSource(3))})
			if err != nil {
				t.Fatal(err)
			}
			ex := exact.New(k)
			for i, ev := range s {
				c.Process(ev)
				ex.Apply(ev)
				got, want := c.Estimate(), float64(ex.Count(k))
				if math.Abs(got-want) > 1e-6*math.Max(1, want) {
					t.Fatalf("event %d: estimate %v, exact %v", i, got, want)
				}
			}
		})
	}
}

// TestUnbiasedness: the mean estimate over many independent samplings must
// approach the exact count (Theorem 4). This is the paper's central claim for
// WSD, tested for each pattern, each weight function family, and a stream
// with deletions.
func TestUnbiasedness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial statistical test")
	}
	s := testStream(t, 11, 400, 0.25)
	ex := exact.New()
	for _, ev := range s {
		ex.Apply(ev)
	}
	for _, tc := range []struct {
		name   string
		k      pattern.Kind
		weight weights.Func
		m      int
		trials int
		tol    float64
	}{
		{"wedge/uniform", pattern.Wedge, weights.Uniform(), 150, 400, 0.08},
		{"wedge/heuristic", pattern.Wedge, weights.GPSDefault(), 150, 400, 0.08},
		{"triangle/uniform", pattern.Triangle, weights.Uniform(), 200, 600, 0.15},
		{"triangle/heuristic", pattern.Triangle, weights.GPSDefault(), 200, 600, 0.15},
		{"triangle/degree", pattern.Triangle, weights.DegreeProduct(), 200, 600, 0.15},
		{"4clique/heuristic", pattern.FourClique, weights.GPSDefault(), 250, 600, 0.5},
		{"4cycle/uniform", pattern.FourCycle, weights.Uniform(), 220, 500, 0.25},
		{"4cycle/heuristic", pattern.FourCycle, weights.GPSDefault(), 220, 500, 0.3},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			truth := float64(ex.Count(tc.k))
			if truth == 0 {
				t.Skip("no instances in test stream")
			}
			var sum float64
			for trial := 0; trial < tc.trials; trial++ {
				c, err := New(Config{M: tc.m, Pattern: tc.k, Weight: tc.weight,
					Rng: rand.New(rand.NewSource(int64(trial)*7 + 13))})
				if err != nil {
					t.Fatal(err)
				}
				for _, ev := range s {
					c.Process(ev)
				}
				sum += c.Estimate()
			}
			mean := sum / float64(tc.trials)
			if rel := math.Abs(mean-truth) / truth; rel > tc.tol {
				t.Errorf("mean estimate %.1f vs truth %.1f: relative bias %.3f exceeds %.3f",
					mean, truth, rel, tc.tol)
			}
		})
	}
}

// TestThresholdInvariants checks Lemma 1's bookkeeping: tau_q <= tau_p after
// any full-reservoir insertion, thresholds never decrease, and the reservoir
// never exceeds M.
func TestThresholdInvariants(t *testing.T) {
	s := testStream(t, 23, 500, 0.3)
	c, err := New(Config{M: 50, Pattern: pattern.Triangle, Weight: weights.GPSDefault(),
		Rng: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	prevP, prevQ := 0.0, 0.0
	for i, ev := range s {
		c.Process(ev)
		if c.SampleSize() > 50 {
			t.Fatalf("event %d: reservoir exceeded M: %d", i, c.SampleSize())
		}
		tp, tq := c.tauP, c.tauQ
		if tq > tp && tp > 0 {
			t.Fatalf("event %d: tau_q %v > tau_p %v", i, tq, tp)
		}
		if tp < prevP || tq < prevQ {
			t.Fatalf("event %d: thresholds decreased: p %v->%v q %v->%v", i, prevP, tp, prevQ, tq)
		}
		prevP, prevQ = tp, tq
	}
}

// TestEqualWeightEqualInclusion checks the motivating property of WSD
// (Eq. 10): under a uniform weight function, edges are included in the
// reservoir with (empirically) equal probabilities even in the presence of
// deletions — the exact property GPS loses (Example 1).
func TestEqualWeightEqualInclusion(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial statistical test")
	}
	// A fixed tiny stream with a deletion right after the reservoir fills,
	// mirroring Example 1. Track inclusion frequency of two edges inserted
	// before and after the deletion.
	var s stream.Stream
	for i := 0; i < 40; i++ {
		s = append(s, stream.Event{Op: stream.Insert, Edge: graph.NewEdge(graph.VertexID(i), graph.VertexID(i+100))})
	}
	s = append(s, stream.Event{Op: stream.Delete, Edge: graph.NewEdge(5, 105)})
	before := graph.NewEdge(30, 130)
	after := graph.NewEdge(200, 300)
	s = append(s, stream.Event{Op: stream.Insert, Edge: after})

	const m = 20
	const trials = 6000
	counts := map[graph.Edge]int{}
	for trial := 0; trial < trials; trial++ {
		c, err := New(Config{M: m, Pattern: pattern.Wedge, Weight: weights.Uniform(),
			Rng: rand.New(rand.NewSource(int64(trial)))})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range s {
			c.Process(ev)
		}
		for _, e := range []graph.Edge{before, after} {
			if _, ok := c.Reservoir().Get(e); ok {
				counts[e]++
			}
		}
	}
	pBefore := float64(counts[before]) / trials
	pAfter := float64(counts[after]) / trials
	if math.Abs(pBefore-pAfter) > 0.05 {
		t.Errorf("inclusion probabilities diverge under equal weights: before=%.3f after=%.3f", pBefore, pAfter)
	}
}

// TestDeletionRemovesFromReservoir checks Case 3 and the subtraction
// estimator's sign.
func TestDeletionRemovesFromReservoir(t *testing.T) {
	c, err := New(Config{M: 100, Pattern: pattern.Triangle, Rng: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	tri := []stream.Event{
		{Op: stream.Insert, Edge: graph.NewEdge(1, 2)},
		{Op: stream.Insert, Edge: graph.NewEdge(2, 3)},
		{Op: stream.Insert, Edge: graph.NewEdge(1, 3)},
	}
	for _, ev := range tri {
		c.Process(ev)
	}
	if got := c.Estimate(); got != 1 {
		t.Fatalf("estimate after forming triangle = %v, want 1", got)
	}
	c.Process(stream.Event{Op: stream.Delete, Edge: graph.NewEdge(2, 3)})
	if got := c.Estimate(); got != 0 {
		t.Fatalf("estimate after destroying triangle = %v, want 0", got)
	}
	if _, ok := c.Reservoir().Get(graph.NewEdge(2, 3)); ok {
		t.Fatal("deleted edge still in reservoir")
	}
}

// TestInfeasibleEventsIgnored: duplicate insertions, deletions of absent
// edges, and self-loops must not corrupt state.
func TestInfeasibleEventsIgnored(t *testing.T) {
	c, err := New(Config{M: 10, Pattern: pattern.Triangle, Rng: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	e := graph.NewEdge(1, 2)
	c.Process(stream.Event{Op: stream.Insert, Edge: e})
	c.Process(stream.Event{Op: stream.Insert, Edge: e}) // duplicate
	c.Process(stream.Event{Op: stream.Delete, Edge: graph.NewEdge(7, 9)})
	c.Process(stream.Event{Op: stream.Insert, Edge: graph.NewEdge(3, 3)}) // loop
	if c.SampleSize() != 1 {
		t.Fatalf("sample size = %d, want 1", c.SampleSize())
	}
	if c.Estimate() != 0 {
		t.Fatalf("estimate = %v, want 0", c.Estimate())
	}
}

// TestStateFeatures verifies the MDP state extraction of Section IV-A on a
// hand-built scenario.
func TestStateFeatures(t *testing.T) {
	c, err := New(Config{M: 100, Pattern: pattern.Triangle, Rng: rand.New(rand.NewSource(8))})
	if err != nil {
		t.Fatal(err)
	}
	// Insertions 1..4 build two wedges sharing edge (1,2) endpoints; the 5th
	// edge (1,2) completes two triangles: {1-3,2-3} and {1-4,2-4}.
	evs := []graph.Edge{
		graph.NewEdge(1, 3), // t=1
		graph.NewEdge(2, 3), // t=2
		graph.NewEdge(1, 4), // t=3
		graph.NewEdge(2, 4), // t=4
		graph.NewEdge(1, 2), // t=5 completes both triangles
	}
	for _, e := range evs {
		c.Process(stream.Event{Op: stream.Insert, Edge: e})
	}
	st := c.lastState
	if st.Instances != 2 {
		t.Fatalf("Instances = %d, want 2", st.Instances)
	}
	if st.DegU != 2 || st.DegV != 2 {
		t.Fatalf("degrees = (%d,%d), want (2,2)", st.DegU, st.DegV)
	}
	if st.Now != 5 {
		t.Fatalf("Now = %d, want 5", st.Now)
	}
	// Triangle 1 has other-edge arrivals {1,2}; triangle 2 has {3,4}. Max
	// aggregation: v1 = max(1,3) = 3, v2 = max(2,4) = 4, v3 = t_k = 5.
	want := []float64{3, 4, 5}
	for j, v := range want {
		if st.Temporal[j] != v {
			t.Fatalf("Temporal[%d] = %v, want %v (full: %v)", j, st.Temporal[j], v, st.Temporal)
		}
	}
}

// TestStateFeaturesAvg covers the Table XIII Avg aggregation variant.
func TestStateFeaturesAvg(t *testing.T) {
	c, err := New(Config{M: 100, Pattern: pattern.Triangle, TemporalAgg: AggAvg,
		Rng: rand.New(rand.NewSource(8))})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []graph.Edge{
		graph.NewEdge(1, 3), graph.NewEdge(2, 3),
		graph.NewEdge(1, 4), graph.NewEdge(2, 4),
		graph.NewEdge(1, 2),
	} {
		c.Process(stream.Event{Op: stream.Insert, Edge: e})
	}
	st := c.lastState
	// Avg aggregation: v1 = (1+3)/2 = 2, v2 = (2+4)/2 = 3, v3 = 5.
	want := []float64{2, 3, 5}
	for j, v := range want {
		if st.Temporal[j] != v {
			t.Fatalf("Temporal[%d] = %v, want %v (full: %v)", j, st.Temporal[j], v, st.Temporal)
		}
	}
}

// TestWeightBias verifies the point of weighted sampling: edges with higher
// weights are sampled with higher probability.
func TestWeightBias(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial statistical test")
	}
	heavy := graph.NewEdge(500, 501)
	var s stream.Stream
	for i := 0; i < 60; i++ {
		s = append(s, stream.Event{Op: stream.Insert, Edge: graph.NewEdge(graph.VertexID(i), graph.VertexID(i+100))})
	}
	s = append(s, stream.Event{Op: stream.Insert, Edge: heavy})
	weight := func(st weights.State) float64 {
		// The heavy edge is recognizable by its isolated endpoints being
		// degree 0; give the paper-style 10x weight differential by marking
		// it via a closure on edge order instead: the last insertion.
		if st.Now == int64(len(s)) {
			return 10
		}
		return 1
	}
	const m = 10
	const trials = 4000
	got := 0
	for trial := 0; trial < trials; trial++ {
		c, err := New(Config{M: m, Pattern: pattern.Wedge, Weight: weight,
			Rng: rand.New(rand.NewSource(int64(trial) + 99))})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range s {
			c.Process(ev)
		}
		if _, ok := c.Reservoir().Get(heavy); ok {
			got++
		}
	}
	pHeavy := float64(got) / trials
	pUniform := float64(m) / float64(len(s))
	if pHeavy < 2*pUniform {
		t.Errorf("heavy edge sampled with p=%.3f, expected well above uniform %.3f", pHeavy, pUniform)
	}
}

func BenchmarkWSDTriangleInsertOnly(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	edges := gen.BarabasiAlbert(5000, 4, rng)
	s := stream.InsertOnly(edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _ := New(Config{M: 1000, Pattern: pattern.Triangle, Weight: weights.GPSDefault(),
			Rng: rand.New(rand.NewSource(int64(i)))})
		for _, ev := range s {
			c.Process(ev)
		}
	}
	b.ReportMetric(float64(len(s)), "events/op")
}
