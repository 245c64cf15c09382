// Package pipeline_test holds the ingestion-processor behaviour tests. The
// processor is the facade's wsd.Processor, a one-shard shard.Ensemble; these
// tests pin the single-goroutine contract that its callers rely on: Close
// semantics, empty batches, Submit/Close races, quiesce and snapshots under
// concurrent ingest, and the published estimate after Close.
package pipeline_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	wsd "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/weights"
	"repro/internal/xrand"
)

func newCounter(t *testing.T, seed int64) *core.Counter {
	t.Helper()
	c, err := core.New(core.Config{M: 300, Pattern: pattern.Triangle,
		Weight: weights.GPSDefault(), Rng: rand.New(rand.NewSource(seed))})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newXrandCounter(t *testing.T, seed int64) *core.Counter {
	t.Helper()
	c, err := core.New(core.Config{M: 300, Pattern: pattern.Triangle,
		Weight: weights.GPSDefault(), Rng: xrand.New(seed)})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testEvents(seed int64, n int) stream.Stream {
	rng := rand.New(rand.NewSource(seed))
	edges := gen.HolmeKim(n, 4, 0.7, rng)
	return stream.LightDeletion(edges, 0.2, rng)
}

func TestCloseSemantics(t *testing.T) {
	p := wsd.NewProcessor(newCounter(t, 1), 4)
	if err := p.Submit(stream.Event{Op: stream.Insert, Edge: testEvents(3, 10)[0].Edge}); err != nil {
		t.Fatal(err)
	}
	a := p.Close()
	b := p.Close() // idempotent
	if a != b {
		t.Fatalf("Close not idempotent: %v vs %v", a, b)
	}
	if err := p.Submit(stream.Event{}); err != shard.ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestSubmitBatchEdgeCases(t *testing.T) {
	p := wsd.NewProcessor(newCounter(t, 2), 4)
	// Zero-length batches are accepted and ignored while open.
	if err := p.SubmitBatch(nil); err != nil {
		t.Fatalf("nil batch = %v, want nil", err)
	}
	if err := p.SubmitBatch([]stream.Event{}); err != nil {
		t.Fatalf("empty batch = %v, want nil", err)
	}
	if p.Processed() != 0 {
		t.Fatalf("processed %d after empty batches, want 0", p.Processed())
	}
	p.Close()
	// After Close every submission path reports ErrClosed, including empty
	// batches.
	if err := p.SubmitBatch(testEvents(7, 10)[:3]); err != shard.ErrClosed {
		t.Fatalf("SubmitBatch after Close = %v, want ErrClosed", err)
	}
	if err := p.SubmitBatch(nil); err != shard.ErrClosed {
		t.Fatalf("empty SubmitBatch after Close = %v, want ErrClosed", err)
	}
}

// TestConcurrentSubmitClose races producers (both paths) against Close under
// the race detector: every submission either lands before the close and is
// counted, or fails with ErrClosed; nothing panics or deadlocks.
func TestConcurrentSubmitClose(t *testing.T) {
	s := testEvents(8, 400)
	p := wsd.NewProcessor(newCounter(t, 11), 8)

	var accepted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for j := off; j < len(s); j += 8 {
				if err := p.Submit(s[j]); err != nil {
					if err != shard.ErrClosed {
						t.Errorf("Submit: %v", err)
					}
					return
				}
				accepted.Add(1)
			}
		}(i)
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for j := off * 40; j+4 <= len(s); j += 160 {
				if err := p.SubmitBatch(s[j : j+4]); err != nil {
					if err != shard.ErrClosed {
						t.Errorf("SubmitBatch: %v", err)
					}
					return
				}
				accepted.Add(4)
			}
		}(i)
	}
	// Let some traffic through, then close concurrently with the producers.
	for p.Processed() == 0 {
	}
	p.Close()
	wg.Wait()
	if got := p.Processed(); got != accepted.Load() {
		t.Fatalf("processed %d, accepted %d", got, accepted.Load())
	}
}

func TestEstimateEventuallyVisible(t *testing.T) {
	p := wsd.NewProcessor(newCounter(t, 5), 8)
	tri := testEvents(4, 50)
	for _, ev := range tri {
		if err := p.Submit(ev); err != nil {
			t.Fatal(err)
		}
	}
	final := p.Close()
	if final == 0 {
		t.Log("final estimate 0 — acceptable for a sparse sample, but Estimate must match Close")
	}
	if p.Estimate() != final {
		t.Fatalf("Estimate after Close = %v, want %v", p.Estimate(), final)
	}
}

// TestQuiesceDrainsBacklog: quiesce must observe every previously submitted
// event applied, and reject use after Close.
func TestQuiesceDrainsBacklog(t *testing.T) {
	s := testEvents(6, 400)
	p := wsd.NewProcessor(newXrandCounter(t, 3), 8)
	if err := p.SubmitBatch(s); err != nil {
		t.Fatal(err)
	}
	var seen float64
	if err := p.Quiesce(func(_ int, c shard.Counter) error {
		seen = c.Estimate()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p.Processed() != int64(len(s)) {
		t.Fatalf("after quiesce, processed %d of %d", p.Processed(), len(s))
	}
	if seen != p.Estimate() {
		t.Fatalf("quiesced estimate %v differs from published %v", seen, p.Estimate())
	}
	p.Close()
	if err := p.Quiesce(func(int, shard.Counter) error { return nil }); err != shard.ErrClosed {
		t.Fatalf("quiesce after close: got %v, want ErrClosed", err)
	}
	if _, err := p.Snapshot(); err != shard.ErrClosed {
		t.Fatalf("snapshot after close: got %v, want ErrClosed", err)
	}
}

// TestConcurrentSnapshotIngest runs snapshots against concurrent producers
// and readers under the race detector: snapshots must be internally
// consistent and never block the processor permanently.
func TestConcurrentSnapshotIngest(t *testing.T) {
	s := testEvents(7, 800)
	p := wsd.NewProcessor(newXrandCounter(t, 9), 16)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(s); i += 4 {
				if err := p.Submit(s[i]); err != nil {
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := p.Snapshot(); err != nil && err != shard.ErrClosed {
					t.Errorf("snapshot: %v", err)
					return
				}
				_ = p.Estimate()
			}
		}()
	}
	wg.Wait()
	p.Close()
}
