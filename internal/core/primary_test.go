package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/policy"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// TestMultiPrimaryMatchesSingleWithTemporalFeatures pins the learned-weight
// configuration: a 4-clique counter under the reference WSD-L policy, which
// consumes the temporal state features, must follow the same trajectory
// whether or not triangle and wedge are counted beside it. The MDP state is
// built from the primary pattern only, so the primary estimate, both
// thresholds, and the sample size must match after every batch.
func TestMultiPrimaryMatchesSingleWithTemporalFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := stream.LightDeletion(gen.PlantedPartition(6, 20, 0.6, 0.02, rng), 0.2, rng)
	ref := policy.Reference(pattern.FourClique)
	newCounter := func(secondary ...pattern.Kind) *core.Counter {
		t.Helper()
		c, err := core.New(core.Config{
			M: 300, Pattern: pattern.FourClique, Secondary: secondary,
			Weight: ref.Func(), Rng: xrand.New(12), Policy: policy.Params(ref),
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	single := newCounter()
	multi := newCounter(pattern.Triangle, pattern.Wedge)
	const batch = 97
	for lo := 0; lo < len(s); lo += batch {
		b := s[lo:min(lo+batch, len(s))]
		single.ProcessBatch(b)
		multi.ProcessBatch(b)
		if got, want := multi.Estimate(), single.Estimate(); got != want {
			t.Fatalf("after event %d: primary estimate %v, single-pattern %v", lo+len(b), got, want)
		}
		ms, ss := multi.Snapshot(), single.Snapshot()
		tp, tq, stp, stq := ms.TauP, ms.TauQ, ss.TauP, ss.TauQ
		if tp != stp || tq != stq || multi.SampleSize() != single.SampleSize() {
			t.Fatalf("after event %d: thresholds/sample (%v,%v,%d), single-pattern (%v,%v,%d)",
				lo+len(b), tp, tq, multi.SampleSize(), stp, stq, single.SampleSize())
		}
	}
	if single.Estimate() == 0 {
		t.Fatal("stream forms no 4-cliques, so no temporal features were extracted")
	}
}
