package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/stream"
	"repro/internal/weights"
	"repro/internal/xrand"
)

var multiKinds = []pattern.Kind{pattern.Wedge, pattern.Triangle, pattern.FourClique}

// multiConfig is the Config counting kinds, primary first.
func multiConfig(m int, kinds []pattern.Kind) Config {
	return Config{M: m, Pattern: kinds[0], Secondary: kinds[1:]}
}

func newTestMulti(t *testing.T, m int, seed int64, w weights.Func, skip bool) *Counter {
	t.Helper()
	cfg := multiConfig(m, multiKinds)
	cfg.Weight, cfg.Rng, cfg.SkipTemporal = w, xrand.New(seed), skip
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewMultiValidation(t *testing.T) {
	rng := xrand.New(1)
	cases := map[string]Config{
		"duplicate":           {M: 100, Pattern: pattern.Wedge, Secondary: []pattern.Kind{pattern.Wedge}, Rng: rng},
		"duplicate secondary": {M: 100, Pattern: pattern.Wedge, Secondary: []pattern.Kind{pattern.Triangle, pattern.Triangle}, Rng: rng},
		"unknown":             {M: 100, Pattern: pattern.Kind(42), Rng: rng},
		"unknown secondary":   {M: 100, Pattern: pattern.Wedge, Secondary: []pattern.Kind{pattern.Kind(42)}, Rng: rng},
		"m too small":         {M: 4, Pattern: pattern.Wedge, Secondary: []pattern.Kind{pattern.FourClique}, Rng: rng},
		"nil rng":             {M: 100, Pattern: pattern.Wedge},
	}
	for name, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	valid := multiConfig(100, multiKinds)
	valid.Rng = rng
	if _, err := New(valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestMultiMatchesSinglesUnderUniformWeight is the sharing layer's exactness
// proof: under a uniform weight function the sampling decisions do not depend
// on the pattern, so a 3-pattern MultiCounter and three single-pattern
// Counters with the same seed must make identical sample trajectories —
// and therefore bit-identical estimates, pattern by pattern, at every event.
func TestMultiMatchesSinglesUnderUniformWeight(t *testing.T) {
	s := testStream(t, 5, 500, 0.2)
	const m = 256
	multi := newTestMulti(t, m, 9, weights.Uniform(), true)
	singles := make([]*Counter, len(multiKinds))
	for i, k := range multiKinds {
		c, err := New(Config{M: m, Pattern: k, Weight: weights.Uniform(), Rng: xrand.New(9), SkipTemporal: true})
		if err != nil {
			t.Fatal(err)
		}
		singles[i] = c
	}
	for evi, ev := range s {
		multi.Process(ev)
		for i, c := range singles {
			c.Process(ev)
			got, ok := multi.EstimateOf(multiKinds[i])
			if !ok {
				t.Fatalf("pattern %s not counted", multiKinds[i])
			}
			if got != c.Estimate() {
				t.Fatalf("event %d: %s estimate %v, single counter %v", evi, multiKinds[i], got, c.Estimate())
			}
		}
	}
	if multi.SampleSize() != singles[0].SampleSize() {
		t.Fatalf("sample size %d, single %d", multi.SampleSize(), singles[0].SampleSize())
	}
}

// TestMultiPrimaryMatchesSingleUnderHeuristic: the MDP state the weight
// function sees is built from the primary pattern, so with the paper's WSD-H
// heuristic the MultiCounter must be bit-identical to a single counter of the
// primary pattern — same weights, same sample, same primary estimate.
func TestMultiPrimaryMatchesSingleUnderHeuristic(t *testing.T) {
	s := testStream(t, 13, 600, 0.25)
	const m = 200
	for _, primary := range []pattern.Kind{pattern.Wedge, pattern.Triangle, pattern.FourClique} {
		kinds := []pattern.Kind{primary}
		for _, k := range multiKinds {
			if k != primary {
				kinds = append(kinds, k)
			}
		}
		cfg := multiConfig(m, kinds)
		cfg.Weight, cfg.Rng, cfg.SkipTemporal = weights.GPSDefault(), xrand.New(4), true
		multi, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		single, err := New(Config{
			M: m, Pattern: primary, Weight: weights.GPSDefault(), Rng: xrand.New(4), SkipTemporal: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		multi.ProcessBatch(s)
		single.ProcessBatch(s)
		if multi.Estimate() != single.Estimate() {
			t.Fatalf("primary %s: multi estimate %v, single %v", primary, multi.Estimate(), single.Estimate())
		}
		tp, tq := multi.tauP, multi.tauQ
		stp, stq := single.tauP, single.tauQ
		if tp != stp || tq != stq {
			t.Fatalf("primary %s: thresholds (%v,%v) vs single (%v,%v)", primary, tp, tq, stp, stq)
		}
	}
}

// TestMultiExactWhenReservoirHoldsEverything: with M at least the stream size
// every estimator sees the whole graph, so every pattern's estimate must
// track its exact count at every event.
func TestMultiExactWhenReservoirHoldsEverything(t *testing.T) {
	s := testStream(t, 7, 200, 0.2)
	cfg := multiConfig(len(s)+1, multiKinds)
	cfg.Rng = xrand.New(3)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := exact.New(multiKinds...)
	for i, ev := range s {
		c.Process(ev)
		ex.Apply(ev)
		for _, k := range multiKinds {
			got, _ := c.EstimateOf(k)
			want := float64(ex.Count(k))
			if math.Abs(got-want) > 1e-6*math.Max(1, want) {
				t.Fatalf("event %d: %s estimate %v, exact %v", i, k, got, want)
			}
		}
	}
}

// TestMultiUnbiasedness: each pattern's estimate over the shared weighted
// sample must be unbiased (the mean over independent samplings approaches the
// exact count) even though the weights are tuned for the primary pattern.
func TestMultiUnbiasedness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial statistical test")
	}
	rng := rand.New(rand.NewSource(2))
	// Planted communities keep all three patterns plentiful; a rare pattern's
	// heavy-tailed inverse-probability estimates would need far more trials.
	edges := gen.PlantedPartition(6, 18, 0.7, 0.01, rng)
	s := stream.LightDeletion(edges, 0.2, rng)
	ex := exact.New(multiKinds...)
	for _, ev := range s {
		ex.Apply(ev)
	}
	const trials = 60
	sums := make([]float64, len(multiKinds))
	for trial := 0; trial < trials; trial++ {
		cfg := multiConfig(450, multiKinds)
		cfg.Weight, cfg.Rng, cfg.SkipTemporal = weights.GPSDefault(), xrand.New(100+int64(trial)), true
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.ProcessBatch(s)
		for i, k := range multiKinds {
			est, _ := c.EstimateOf(k)
			sums[i] += est
		}
	}
	for i, k := range multiKinds {
		mean := sums[i] / trials
		want := float64(ex.Count(k))
		if math.Abs(mean-want) > 0.25*math.Max(1, want) {
			t.Errorf("%s: mean estimate %v over %d trials, exact %v", k, mean, trials, want)
		}
	}
}

// TestMultiSnapshotBitIdenticalResume: snapshot mid-stream, restore, finish
// the stream on both the original and the restored counter — every pattern's
// estimate, the thresholds, and the sample must come out bit-identical.
func TestMultiSnapshotBitIdenticalResume(t *testing.T) {
	s := testStream(t, 21, 600, 0.3)
	cut := len(s) / 2
	const m = 128

	whole := newTestMulti(t, m, 77, weights.GPSDefault(), true)
	whole.ProcessBatch(s)

	first := newTestMulti(t, m, 77, weights.GPSDefault(), true)
	first.ProcessBatch(s[:cut])
	blob, err := first.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Multi() || len(snap.Patterns) != len(multiKinds) {
		t.Fatalf("snapshot shape: multi=%v patterns=%v", snap.Multi(), snap.Patterns)
	}
	restored, err := Restore(snap, Config{Weight: weights.GPSDefault(), SkipTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	restored.ProcessBatch(s[cut:])
	// The snapshotted counter also continues in place: both must match the
	// uninterrupted run bit for bit.
	first.ProcessBatch(s[cut:])

	for name, c := range map[string]*Counter{"restored": restored, "continued": first} {
		for _, k := range multiKinds {
			got, _ := c.EstimateOf(k)
			want, _ := whole.EstimateOf(k)
			if got != want {
				t.Fatalf("%s: %s estimate %v, uninterrupted %v", name, k, got, want)
			}
		}
		tp, tq := c.tauP, c.tauQ
		wtp, wtq := whole.tauP, whole.tauQ
		if tp != wtp || tq != wtq || c.SampleSize() != whole.SampleSize() {
			t.Fatalf("%s: thresholds/sample (%v,%v,%d) vs (%v,%v,%d)",
				name, tp, tq, c.SampleSize(), wtp, wtq, whole.SampleSize())
		}
	}
}

// TestMultiSnapshotValidation: malformed multi snapshots are rejected at
// decode/restore, and a restore that names secondary patterns refuses a
// snapshot counting a different set, primary included.
func TestMultiSnapshotValidation(t *testing.T) {
	c := newTestMulti(t, 64, 5, nil, true)
	c.ProcessBatch(testStream(t, 2, 200, 0.1))
	good := c.Snapshot()

	single, err := New(Config{M: 64, Pattern: pattern.Triangle, Rng: xrand.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(single.Snapshot(), Config{Secondary: multiKinds[1:], Rng: xrand.New(1)}); err == nil {
		t.Error("Restore with secondary patterns accepted a single-pattern snapshot")
	}
	if _, err := Restore(good, Config{Pattern: multiKinds[0], Secondary: []pattern.Kind{pattern.Triangle}}); err == nil {
		t.Error("Restore accepted mismatched secondary patterns")
	}
	// The primary is part of the checked list: the right secondaries under
	// the wrong primary must not restore as the snapshot's primary.
	if _, err := Restore(good, Config{Pattern: pattern.FourClique, Secondary: multiKinds[1:]}); err == nil {
		t.Error("Restore accepted a mismatched primary alongside matching secondary patterns")
	}
	if got, err := Restore(good, Config{Pattern: multiKinds[0], Secondary: multiKinds[1:]}); err != nil || got.NumEstimates() != len(multiKinds) {
		t.Errorf("Restore with matching patterns: %v", err)
	}

	corrupt := func(name string, mutate func(s *Snapshot)) {
		t.Helper()
		cp := *good
		cp.Patterns = append([]pattern.Kind(nil), good.Patterns...)
		cp.Estimates = append([]float64(nil), good.Estimates...)
		mutate(&cp)
		if err := cp.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	corrupt("estimates/patterns length mismatch", func(s *Snapshot) { s.Estimates = s.Estimates[:1] })
	corrupt("duplicate pattern", func(s *Snapshot) { s.Patterns[1] = s.Patterns[0]; s.Pattern = s.Patterns[0] })
	corrupt("unknown pattern", func(s *Snapshot) { s.Patterns[1] = pattern.Kind(9) })
	corrupt("primary mismatch", func(s *Snapshot) { s.Pattern = s.Patterns[1] })
	corrupt("estimate mismatch", func(s *Snapshot) { s.Estimate = s.Estimate + 1 })
	corrupt("estimates without patterns", func(s *Snapshot) { s.Patterns = nil })
	corrupt("m below largest pattern", func(s *Snapshot) { s.M = 3; s.Items = nil })
}
