package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/stream"
	"repro/internal/weights"
	"repro/internal/xrand"
)

func xrandCounters(t *testing.T, k, m int) []Counter {
	t.Helper()
	counters := make([]Counter, k)
	for i := range counters {
		c, err := core.New(core.Config{M: m, Pattern: pattern.Triangle,
			Weight: weights.GPSDefault(), Rng: xrand.New(int64(100 + i))})
		if err != nil {
			t.Fatal(err)
		}
		counters[i] = c
	}
	return counters
}

func restoreBuild(i int, raw []byte) (Counter, error) {
	snap, err := core.DecodeSnapshot(raw)
	if err != nil {
		return nil, err
	}
	return core.Restore(snap, core.Config{Weight: weights.GPSDefault()})
}

// restore rebuilds an ensemble from a Snapshot blob the way the facade's
// sharded restore does: build revives each shard's counter, and the
// snapshot's position seeds the new ensemble's base.
func restore(data []byte, build func(i int, raw []byte) (Counter, error)) (*Ensemble, error) {
	snap, err := DecodeEnsembleSnapshot(data)
	if err != nil {
		return nil, err
	}
	counters := make([]Counter, len(snap.Shards))
	for i, raw := range snap.Shards {
		if counters[i], err = build(i, raw); err != nil {
			return nil, err
		}
	}
	return New(counters, WithBasePosition(snap.Position))
}

// TestEnsembleSnapshotBitIdenticalResume checks the tentpole property at the
// sharded layer: an ensemble snapshotted mid-stream and restored produces
// exactly the estimate an uninterrupted ensemble produces over the same
// stream — every shard resumes its own RNG sequence.
func TestEnsembleSnapshotBitIdenticalResume(t *testing.T) {
	edges := gen.BarabasiAlbert(400, 5, rand.New(rand.NewSource(3)))
	s := stream.LightDeletion(edges, 0.2, rand.New(rand.NewSource(4)))
	cut := len(s) / 2

	feed := func(e *Ensemble, evs stream.Stream) {
		t.Helper()
		const batch = 64
		for lo := 0; lo < len(evs); lo += batch {
			hi := lo + batch
			if hi > len(evs) {
				hi = len(evs)
			}
			if err := e.SubmitBatch(evs[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
	}

	uninterrupted, err := New(xrandCounters(t, 4, 90))
	if err != nil {
		t.Fatal(err)
	}
	interrupted, err := New(xrandCounters(t, 4, 90))
	if err != nil {
		t.Fatal(err)
	}
	feed(uninterrupted, s[:cut])
	feed(interrupted, s[:cut])

	blob, err := interrupted.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if interrupted.Close() == 0 {
		t.Log("interrupted ensemble closed with zero estimate (possible but unusual)")
	}

	restored, err := restore(blob, restoreBuild)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Shards() != 4 {
		t.Fatalf("restored %d shards, want 4", restored.Shards())
	}
	feed(uninterrupted, s[cut:])
	feed(restored, s[cut:])

	want := uninterrupted.Close()
	got := restored.Close()
	if got != want {
		t.Fatalf("restored ensemble estimate %v, uninterrupted %v", got, want)
	}
	for i, w := range uninterrupted.Estimates() {
		if restored.Estimates()[i] != w {
			t.Fatalf("shard %d estimate diverges: %v != %v", i, restored.Estimates()[i], w)
		}
	}
}

func TestQuiesceSemantics(t *testing.T) {
	e, err := New(xrandCounters(t, 3, 50))
	if err != nil {
		t.Fatal(err)
	}
	s := stream.InsertOnly(gen.BarabasiAlbert(120, 3, rand.New(rand.NewSource(8))))
	if err := e.SubmitBatch(s); err != nil {
		t.Fatal(err)
	}
	// Quiesce must observe every submitted event applied on every shard, and
	// the counters it hands out must hold the published estimates.
	var seen []float64
	err = e.Quiesce(func(i int, c Counter) error {
		seen = append(seen, c.Estimate())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("quiesce visited %d shards, want 3", len(seen))
	}
	if got := e.Processed(); got != int64(len(s)) {
		t.Fatalf("after quiesce, processed %d of %d events", got, len(s))
	}
	for i, est := range e.Estimates() {
		if est != seen[i] {
			t.Fatalf("shard %d: quiesced estimate %v, published %v", i, seen[i], est)
		}
	}
	e.Close()
	if err := e.Quiesce(func(int, Counter) error { return nil }); err != ErrClosed {
		t.Fatalf("quiesce after close: got %v, want ErrClosed", err)
	}
	if _, err := e.Snapshot(); err != ErrClosed {
		t.Fatalf("snapshot after close: got %v, want ErrClosed", err)
	}
}

// TestConcurrentSubmitBatchSnapshotClose is the ensemble chaos test under
// the race detector: single submits, batch submits, estimate readers,
// snapshots, and a racing Close, all at once. Every operation must either
// succeed or fail with ErrClosed, nothing may deadlock or tear state, and
// every submission that succeeded must be applied.
func TestConcurrentSubmitBatchSnapshotClose(t *testing.T) {
	edges := gen.BarabasiAlbert(300, 4, rand.New(rand.NewSource(6)))
	s := stream.LightDeletion(edges, 0.2, rand.New(rand.NewSource(7)))
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			e, err := New(xrandCounters(t, k, 60), WithBuffer(2))
			if err != nil {
				t.Fatal(err)
			}

			var accepted atomic.Int64
			var wg sync.WaitGroup
			for p := 0; p < 3; p++ {
				wg.Add(1)
				go func(off int) {
					defer wg.Done()
					for i := off; i < len(s); i += 3 {
						if err := e.Submit(s[i]); err != nil {
							if err != ErrClosed {
								t.Errorf("Submit: %v", err)
							}
							return
						}
						accepted.Add(1)
					}
				}(p)
				wg.Add(1)
				go func(off int) {
					defer wg.Done()
					for lo := off * 64; lo+16 <= len(s); lo += 192 {
						if err := e.SubmitBatch(s[lo : lo+16]); err != nil {
							if err != ErrClosed {
								t.Errorf("SubmitBatch: %v", err)
							}
							return
						}
						accepted.Add(16)
					}
				}(p)
			}
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						_ = e.Estimate()
						_ = e.Processed()
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					if _, err := e.Snapshot(); err != nil && err != ErrClosed {
						t.Errorf("Snapshot: %v", err)
						return
					}
				}
			}()
			for e.Processed() == 0 {
			}
			e.Close()
			wg.Wait()
			if again := e.Close(); again != e.Estimate() { // idempotent
				t.Fatalf("second Close returned %v, estimate %v", again, e.Estimate())
			}
			if got := e.Processed(); got != accepted.Load() {
				t.Fatalf("processed %d, accepted %d", got, accepted.Load())
			}
		})
	}
}

// nonCheckpointable is a Counter without a Checkpoint method.
type nonCheckpointable struct{ n int64 }

func (c *nonCheckpointable) Process(stream.Event) {}
func (c *nonCheckpointable) Estimate() float64    { return float64(c.n) }

func TestSnapshotRequiresCheckpointable(t *testing.T) {
	e, err := New([]Counter{&nonCheckpointable{}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Snapshot(); err == nil {
		t.Fatal("snapshot of a non-checkpointable counter should fail")
	}
}

func TestRestoreValidation(t *testing.T) {
	if _, err := restore([]byte(`garbage`), restoreBuild); err == nil {
		t.Error("garbage should be rejected")
	}
	if _, err := restore([]byte(`{"version":9,"shards":[]}`), restoreBuild); err == nil {
		t.Error("unknown version should be rejected")
	}
	if _, err := restore([]byte(`{"version":1,"shards":[]}`), restoreBuild); err == nil {
		t.Error("empty shard list should be rejected")
	}
	if _, err := restore([]byte(`{"version":1,"shards":[{"version":99}]}`), restoreBuild); err == nil {
		t.Error("corrupt shard snapshot should be rejected")
	}
}
