package sampling

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/stream"
)

// counter is the common surface under test.
type counter interface {
	Process(ev stream.Event)
	Estimate() float64
	Name() string
}

func dynStream(seed int64, n int, betaL float64) stream.Stream {
	rng := rand.New(rand.NewSource(seed))
	edges := gen.BarabasiAlbert(n, 3, rng)
	if betaL == 0 {
		return stream.InsertOnly(edges)
	}
	return stream.LightDeletion(edges, betaL, rng)
}

func exactCount(s stream.Stream, k pattern.Kind) float64 {
	ex := exact.New(k)
	for _, ev := range s {
		ex.Apply(ev)
	}
	return float64(ex.Count(k))
}

func makeCounter(t *testing.T, name string, k pattern.Kind, m int, seed int64) counter {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var (
		c   counter
		err error
	)
	switch name {
	case "GPS":
		c, err = NewGPS(GPSConfig{M: m, Pattern: k, Rng: rng})
	case "GPS-A":
		c, err = NewGPSA(GPSConfig{M: m, Pattern: k, Rng: rng})
	case "Triest":
		c, err = NewTriest(UniformConfig{M: m, Pattern: k, Rng: rng})
	case "ThinkD":
		c, err = NewThinkD(UniformConfig{M: m, Pattern: k, Rng: rng})
	case "WRS":
		c, err = NewWRS(WRSConfig{UniformConfig: UniformConfig{M: m, Pattern: k, Rng: rng}})
	default:
		t.Fatalf("unknown algorithm %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var allAlgos = []string{"GPS", "GPS-A", "Triest", "ThinkD", "WRS"}
var dynamicAlgos = []string{"GPS-A", "Triest", "ThinkD", "WRS"}

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewGPS(GPSConfig{M: 1, Pattern: pattern.Triangle, Rng: rng}); err == nil {
		t.Error("GPS: expected error for M < |H|")
	}
	if _, err := NewGPS(GPSConfig{M: 10, Pattern: pattern.Triangle}); err == nil {
		t.Error("GPS: expected error for nil Rng")
	}
	if _, err := NewTriest(UniformConfig{M: 2, Pattern: pattern.Triangle, Rng: rng}); err == nil {
		t.Error("Triest: expected error for M < |H|")
	}
	if _, err := NewWRS(WRSConfig{UniformConfig: UniformConfig{M: 10, Pattern: pattern.Triangle, Rng: rng}, Alpha: 1.5}); err == nil {
		t.Error("WRS: expected error for alpha >= 1")
	}
	if _, err := NewWRS(WRSConfig{UniformConfig: UniformConfig{M: 4, Pattern: pattern.Triangle, Rng: rng}, Alpha: 0.9}); err == nil {
		t.Error("WRS: expected error when reservoir share < |H|")
	}
}

// TestExactWithFullBudget: when M exceeds the stream size every algorithm
// must match the exact count (all inclusion probabilities are 1).
func TestExactWithFullBudget(t *testing.T) {
	s := dynStream(3, 150, 0.2)
	insertOnly := dynStream(3, 150, 0)
	for _, k := range []pattern.Kind{pattern.Wedge, pattern.Triangle} {
		for _, name := range allAlgos {
			streamUsed := s
			if name == "GPS" {
				streamUsed = insertOnly // GPS is insertion-only by design
			}
			want := exactCount(streamUsed, k)
			c := makeCounter(t, name, k, len(streamUsed)+10, 7)
			for _, ev := range streamUsed {
				c.Process(ev)
			}
			if got := c.Estimate(); math.Abs(got-want) > 1e-6*math.Max(1, want) {
				t.Errorf("%s/%v: estimate %v, exact %v", name, k, got, want)
			}
		}
	}
}

// TestUnbiasednessBaselines: mean estimate over repeated samplings approaches
// the exact count for each baseline on a fully dynamic stream (insertion-only
// for GPS).
func TestUnbiasednessBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial statistical test")
	}
	dyn := dynStream(11, 350, 0.25)
	ins := dynStream(11, 350, 0)
	for _, tc := range []struct {
		algo   string
		k      pattern.Kind
		m      int
		trials int
		tol    float64
	}{
		{"GPS", pattern.Triangle, 200, 500, 0.15},
		{"GPS-A", pattern.Triangle, 200, 500, 0.15},
		{"Triest", pattern.Triangle, 200, 800, 0.25},
		{"ThinkD", pattern.Triangle, 200, 500, 0.15},
		{"WRS", pattern.Triangle, 200, 500, 0.15},
		{"GPS-A", pattern.Wedge, 150, 400, 0.10},
		{"ThinkD", pattern.Wedge, 150, 400, 0.10},
		{"WRS", pattern.Wedge, 150, 400, 0.10},
	} {
		tc := tc
		t.Run(tc.algo+"/"+tc.k.String(), func(t *testing.T) {
			t.Parallel()
			s := dyn
			if tc.algo == "GPS" {
				s = ins
			}
			truth := exactCount(s, tc.k)
			if truth == 0 {
				t.Skip("no instances")
			}
			var sum float64
			for trial := 0; trial < tc.trials; trial++ {
				c := makeCounter(t, tc.algo, tc.k, tc.m, int64(trial)*31+5)
				for _, ev := range s {
					c.Process(ev)
				}
				sum += c.Estimate()
			}
			mean := sum / float64(tc.trials)
			if rel := math.Abs(mean-truth) / truth; rel > tc.tol {
				t.Errorf("mean %.1f vs truth %.1f: relative bias %.3f > %.3f", mean, truth, rel, tc.tol)
			}
		})
	}
}

// TestRandomPairingInvariants: the RP sample never exceeds its budget, the
// counters stay non-negative, and the sample only contains live edges.
func TestRandomPairingInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rp := newRPSample(30, rng)
	live := graph.NewAdjSet()
	s := dynStream(21, 300, 0.4)
	for i, ev := range s {
		switch ev.Op {
		case stream.Insert:
			live.Add(ev.Edge)
			rp.insert(ev.Edge)
		case stream.Delete:
			live.Remove(ev.Edge)
			rp.remove(ev.Edge)
		}
		if rp.len() > 30 {
			t.Fatalf("event %d: sample size %d exceeds budget", i, rp.len())
		}
		if rp.di < 0 || rp.do < 0 {
			t.Fatalf("event %d: negative RP counters di=%d do=%d", i, rp.di, rp.do)
		}
		if rp.s != live.Len() {
			t.Fatalf("event %d: population count %d, live edges %d", i, rp.s, live.Len())
		}
	}
	for _, e := range rp.edges {
		if !live.Has(e) {
			t.Errorf("sampled edge %v is not live", e)
		}
	}
}

// TestRPUniformity: random pairing must keep the sample uniform under
// deletions — every live edge is sampled with (empirically) equal frequency.
func TestRPUniformity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial statistical test")
	}
	s := dynStream(31, 120, 0.3)
	final := s.FinalGraph()
	liveEdges := final.Edges()
	counts := make(map[graph.Edge]int, len(liveEdges))
	const trials = 4000
	const m = 25
	for trial := 0; trial < trials; trial++ {
		rp := newRPSample(m, rand.New(rand.NewSource(int64(trial))))
		for _, ev := range s {
			if ev.Op == stream.Insert {
				rp.insert(ev.Edge)
			} else {
				rp.remove(ev.Edge)
			}
		}
		for _, e := range rp.edges {
			counts[e]++
		}
	}
	want := float64(m) / float64(len(liveEdges))
	for _, e := range liveEdges {
		got := float64(counts[e]) / trials
		if math.Abs(got-want) > 0.05 {
			t.Errorf("edge %v inclusion frequency %.3f, want ~%.3f", e, got, want)
		}
	}
}

// TestGPSADeletedEdgesStayInReservoir verifies the documented GPS-A drawback:
// DEL-tagged edges keep occupying space.
func TestGPSADeletedEdgesStayInReservoir(t *testing.T) {
	c := makeCounter(t, "GPS-A", pattern.Triangle, 50, 3).(*GPSA)
	var s stream.Stream
	for i := 0; i < 40; i++ {
		s = append(s, stream.Event{Op: stream.Insert, Edge: graph.NewEdge(graph.VertexID(i), graph.VertexID(i+100))})
	}
	for i := 0; i < 10; i++ {
		s = append(s, stream.Event{Op: stream.Delete, Edge: graph.NewEdge(graph.VertexID(i), graph.VertexID(i+100))})
	}
	for _, ev := range s {
		c.Process(ev)
	}
	if c.SampleSize() != 40 {
		t.Fatalf("reservoir slots = %d, want 40 (deletions must not free space)", c.SampleSize())
	}
	if c.LiveSampleSize() != 30 {
		t.Fatalf("live sample = %d, want 30", c.LiveSampleSize())
	}
}

// TestWRSWaitingRoomHoldsRecentEdges: the newest edges must always be stored.
func TestWRSWaitingRoomHoldsRecentEdges(t *testing.T) {
	c := makeCounter(t, "WRS", pattern.Triangle, 100, 3).(*WRS)
	s := dynStream(5, 500, 0)
	for _, ev := range s {
		c.Process(ev)
	}
	// The last wrCap insertions are unconditionally stored.
	recent := 0
	for i := len(s) - 1; i >= 0 && recent < c.wrCap; i-- {
		if s[i].Op != stream.Insert {
			continue
		}
		if _, ok := c.wrSet[s[i].Edge]; !ok {
			t.Fatalf("recent edge %v missing from waiting room", s[i].Edge)
		}
		recent++
	}
}

// TestTriestTauMatchesSample: tau must equal the exact instance count within
// the current sample at all times.
func TestTriestTauMatchesSample(t *testing.T) {
	c := makeCounter(t, "Triest", pattern.Triangle, 40, 17).(*Triest)
	s := dynStream(13, 250, 0.3)
	for i, ev := range s {
		c.Process(ev)
		sampleGraph := graph.NewAdjSet()
		for _, e := range c.rp.edges {
			sampleGraph.Add(e)
		}
		want := exact.CountStatic(sampleGraph, pattern.Triangle)
		if c.tau != want {
			t.Fatalf("event %d: tau=%d, in-sample triangles=%d", i, c.tau, want)
		}
	}
}

// TestDeletionOfUnsampledEdge must not panic or corrupt estimates.
func TestDeletionOfUnsampledEdge(t *testing.T) {
	for _, name := range dynamicAlgos {
		c := makeCounter(t, name, pattern.Triangle, 10, 1)
		for i := 0; i < 50; i++ {
			c.Process(stream.Event{Op: stream.Insert, Edge: graph.NewEdge(graph.VertexID(i), graph.VertexID(i+1))})
		}
		c.Process(stream.Event{Op: stream.Delete, Edge: graph.NewEdge(2, 3)})
		if math.IsNaN(c.Estimate()) || math.IsInf(c.Estimate(), 0) {
			t.Errorf("%s: estimate corrupted after deleting unsampled edge", name)
		}
	}
}

func BenchmarkBaselinesTriangle(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	edges := gen.BarabasiAlbert(5000, 4, rng)
	s := stream.LightDeletion(edges, 0.2, rng)
	for _, name := range dynamicAlgos {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var c counter
				r := rand.New(rand.NewSource(int64(i)))
				switch name {
				case "GPS-A":
					c, _ = NewGPSA(GPSConfig{M: 1000, Pattern: pattern.Triangle, Rng: r})
				case "Triest":
					c, _ = NewTriest(UniformConfig{M: 1000, Pattern: pattern.Triangle, Rng: r})
				case "ThinkD":
					c, _ = NewThinkD(UniformConfig{M: 1000, Pattern: pattern.Triangle, Rng: r})
				case "WRS":
					c, _ = NewWRS(WRSConfig{UniformConfig: UniformConfig{M: 1000, Pattern: pattern.Triangle, Rng: r}})
				}
				for _, ev := range s {
					c.Process(ev)
				}
			}
			b.ReportMetric(float64(len(s)), "events/op")
		})
	}
}

// TestWRSTombstoneCompaction: deleting waiting-room residents leaves
// tombstones in the FIFO that popOldest must skip without losing live edges.
func TestWRSTombstoneCompaction(t *testing.T) {
	c := makeCounter(t, "WRS", pattern.Triangle, 40, 1).(*WRS)
	// Fill the waiting room, delete some residents, then keep inserting so
	// the FIFO pops through the tombstones.
	var edges []graph.Edge
	for i := 0; i < 60; i++ {
		e := graph.NewEdge(graph.VertexID(i), graph.VertexID(i+500))
		edges = append(edges, e)
		c.Process(stream.Event{Op: stream.Insert, Edge: e})
		if i%3 == 0 && i > 0 {
			c.Process(stream.Event{Op: stream.Delete, Edge: edges[i-1]})
		}
	}
	// Every edge in wrSet must also be in the stored adjacency; sizes must
	// stay bounded.
	for e := range c.wrSet {
		if !c.rp.adj.Has(e) {
			t.Fatalf("waiting-room edge %v missing from stored graph", e)
		}
	}
	if len(c.wrSet) > c.wrCap {
		t.Fatalf("waiting room over capacity: %d > %d", len(c.wrSet), c.wrCap)
	}
	if c.SampleSize() > 40 {
		t.Fatalf("total storage %d exceeds budget", c.SampleSize())
	}
}

// TestGPSAIgnoresReinsertionOfTombstonedEdge documents the defensive behavior
// for the (infeasible per Definition 1, but possible in dirty inputs) case of
// re-inserting an edge whose tombstone still occupies the reservoir.
func TestGPSAIgnoresReinsertionOfTombstonedEdge(t *testing.T) {
	c := makeCounter(t, "GPS-A", pattern.Triangle, 50, 2).(*GPSA)
	e := graph.NewEdge(1, 2)
	c.Process(stream.Event{Op: stream.Insert, Edge: e})
	c.Process(stream.Event{Op: stream.Delete, Edge: e})
	c.Process(stream.Event{Op: stream.Insert, Edge: e}) // tombstone collision
	if got := c.SampleSize(); got != 1 {
		t.Fatalf("reservoir slots = %d, want 1 (tombstone retained)", got)
	}
	if got := c.LiveSampleSize(); got != 0 {
		t.Fatalf("live sample = %d, want 0", got)
	}
}

// TestFourCycleBaselines: the generic estimators handle the 4-cycle extension
// pattern exactly with a full budget.
func TestFourCycleBaselines(t *testing.T) {
	s := dynStream(3, 150, 0.2)
	want := exactCount(s, pattern.FourCycle)
	if want == 0 {
		t.Skip("no 4-cycles in test stream")
	}
	for _, name := range dynamicAlgos {
		c := makeCounter(t, name, pattern.FourCycle, len(s)+10, 7)
		for _, ev := range s {
			c.Process(ev)
		}
		if got := c.Estimate(); math.Abs(got-want) > 1e-6*want {
			t.Errorf("%s: 4-cycle estimate %v, exact %v", name, got, want)
		}
	}
}
