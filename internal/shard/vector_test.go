package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/stream"
	"repro/internal/weights"
	"repro/internal/xrand"
)

var vectorKinds = []pattern.Kind{pattern.Wedge, pattern.Triangle, pattern.FourClique}

func vectorStream(t *testing.T, seed int64, n int) stream.Stream {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return stream.LightDeletion(gen.BarabasiAlbert(n, 4, rng), 0.2, rng)
}

func newMultiShard(t *testing.T, m int, seed int64) *core.Counter {
	t.Helper()
	c, err := core.New(core.Config{
		M: m, Pattern: vectorKinds[0], Secondary: vectorKinds[1:], Weight: weights.GPSDefault(),
		Rng: xrand.New(seed), SkipTemporal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newMultiEnsemble(t *testing.T, shards, m int, seed int64) *Ensemble {
	t.Helper()
	counters := make([]Counter, shards)
	for i := range counters {
		counters[i] = newMultiShard(t, m, seed+int64(i))
	}
	e, err := New(counters)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEnsembleVector: a multi-pattern ensemble combines each pattern's
// estimates across shards exactly as direct counters would; with one shard it
// publishes the counter's own vector.
func TestEnsembleVector(t *testing.T) {
	s := vectorStream(t, 3, 500)
	const m = 128
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("k%d", shards), func(t *testing.T) {
			direct := make([]*core.Counter, shards)
			for i := range direct {
				direct[i] = newMultiShard(t, m, 20+int64(i))
				direct[i].ProcessBatch(s)
			}

			e := newMultiEnsemble(t, shards, m, 20)
			if e.NumEstimates() != len(vectorKinds) {
				t.Fatalf("NumEstimates = %d, want %d", e.NumEstimates(), len(vectorKinds))
			}
			for lo := 0; lo < len(s); lo += 100 {
				if err := e.SubmitBatch(s[lo:min(lo+100, len(s))]); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Quiesce(func(int, Counter) error { return nil }); err != nil {
				t.Fatal(err)
			}
			vec := e.EstimateVector()
			for i, k := range vectorKinds {
				want := 0.0
				for _, d := range direct {
					est, _ := d.EstimateOf(k)
					want += est
				}
				want /= float64(shards)
				if vec[i] != want {
					t.Fatalf("%s: ensemble %v, direct mean %v", k, vec[i], want)
				}
				if e.EstimateAt(i) != want {
					t.Fatalf("%s: EstimateAt %v, want %v", k, e.EstimateAt(i), want)
				}
			}
			if e.Estimate() != vec[0] {
				t.Fatalf("primary estimate %v, vector[0] %v", e.Estimate(), vec[0])
			}
			e.Close()
		})
	}
}

// TestEnsembleRejectsMixedWidths: shards publishing different estimate
// vector widths cannot form an ensemble.
func TestEnsembleRejectsMixedWidths(t *testing.T) {
	multi := newMultiShard(t, 64, 1)
	single, err := core.New(core.Config{
		M: 64, Pattern: pattern.Triangle, Rng: xrand.New(2), SkipTemporal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New([]Counter{multi, single}); err == nil {
		t.Fatal("mixed-width ensemble accepted")
	}
}

// TestEnsembleVectorSnapshotResume: the ensemble snapshot of multi-pattern
// shards restores into an ensemble that continues bit-identically on every
// pattern.
func TestEnsembleVectorSnapshotResume(t *testing.T) {
	s := vectorStream(t, 17, 600)
	cut := len(s) / 2
	const m = 100
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("k%d", shards), func(t *testing.T) {
			whole := newMultiEnsemble(t, shards, m, 40)
			if err := whole.SubmitBatch(s); err != nil {
				t.Fatal(err)
			}
			whole.Close()

			e := newMultiEnsemble(t, shards, m, 40)
			if err := e.SubmitBatch(s[:cut]); err != nil {
				t.Fatal(err)
			}
			blob, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			e.Close()

			restored, err := restore(blob, func(i int, raw []byte) (Counter, error) {
				snap, err := core.DecodeSnapshot(raw)
				if err != nil {
					return nil, err
				}
				return core.Restore(snap, core.Config{Weight: weights.GPSDefault(), SkipTemporal: true})
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.SubmitBatch(s[cut:]); err != nil {
				t.Fatal(err)
			}
			restored.Close()

			for i, k := range vectorKinds {
				if got, want := restored.EstimateAt(i), whole.EstimateAt(i); got != want {
					t.Fatalf("%s: resumed %v, uninterrupted %v", k, got, want)
				}
			}
		})
	}
}
