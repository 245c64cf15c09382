package pipeline

import (
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

func newMulti(t *testing.T, seed int64) *core.Counter {
	t.Helper()
	c, err := core.New(core.Config{
		M: 300, Pattern: vectorKinds[0], Secondary: vectorKinds[1:], Weight: weights.GPSDefault(),
		Rng: xrand.New(seed), SkipTemporal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestVectorPublication: a processor over a multi-pattern counter must
// publish every pattern's estimate, and after a quiesce the published vector
// must equal the counter's own estimates exactly.
func TestVectorPublication(t *testing.T) {
	s := vectorStream(t, 3, 500)
	direct := newMulti(t, 7)
	direct.ProcessBatch(s)

	p := New(newMulti(t, 7), 8)
	if p.NumEstimates() != len(vectorKinds) {
		t.Fatalf("NumEstimates = %d, want %d", p.NumEstimates(), len(vectorKinds))
	}
	for lo := 0; lo < len(s); lo += 100 {
		hi := lo + 100
		if hi > len(s) {
			hi = len(s)
		}
		if err := p.SubmitBatch(s[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Quiesce(func(Counter) error { return nil }); err != nil {
		t.Fatal(err)
	}
	want := direct.Estimates()
	got := p.EstimateVector()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("estimate %d (%s): published %v, direct %v", i, vectorKinds[i], got[i], want[i])
		}
		if p.EstimateAt(i) != want[i] {
			t.Fatalf("EstimateAt(%d) = %v, want %v", i, p.EstimateAt(i), want[i])
		}
	}
	if p.Estimate() != want[0] {
		t.Fatalf("primary Estimate %v, want %v", p.Estimate(), want[0])
	}
	p.Close()
}

// TestVectorSnapshotResume: the processor's snapshot of a multi-pattern
// counter restores into a processor that continues bit-identically on every
// pattern.
func TestVectorSnapshotResume(t *testing.T) {
	s := vectorStream(t, 9, 600)
	cut := len(s) / 2

	whole := New(newMulti(t, 11), 8)
	if err := whole.SubmitBatch(s); err != nil {
		t.Fatal(err)
	}
	whole.Close()

	p := New(newMulti(t, 11), 8)
	if err := p.SubmitBatch(s[:cut]); err != nil {
		t.Fatal(err)
	}
	blob, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	p.Close()

	snap, err := core.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.Restore(snap, core.Config{Weight: weights.GPSDefault(), SkipTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	rp := New(restored, 8)
	if err := rp.SubmitBatch(s[cut:]); err != nil {
		t.Fatal(err)
	}
	rp.Close()

	for i := range vectorKinds {
		if got, want := rp.EstimateAt(i), whole.EstimateAt(i); got != want {
			t.Fatalf("%s: resumed %v, uninterrupted %v", vectorKinds[i], got, want)
		}
	}
}
