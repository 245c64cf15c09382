package shard

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/stream"
	"repro/internal/weights"
)

func newCounter(t testing.TB, m int, seed int64) *core.Counter {
	t.Helper()
	c, err := core.New(core.Config{M: m, Pattern: pattern.Triangle,
		Weight: weights.GPSDefault(), Rng: rand.New(rand.NewSource(seed))})
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

// noBatch hides core.Counter's ProcessBatch so the worker's per-event
// fallback for batches is exercised.
type noBatch struct{ c *core.Counter }

func (n noBatch) Process(ev stream.Event) { n.c.Process(ev) }
func (n noBatch) Estimate() float64       { return n.c.Estimate() }

// TestMatchesSequential: the ensemble over K counters must produce exactly
// the combined estimate of the same K counters run sequentially, through
// every submission mix: per-event Submit alone, Submit interleaved with
// SubmitBatch, and batches applied by the per-event fallback.
func TestMatchesSequential(t *testing.T) {
	s := testEvents(1, 400)
	for _, tc := range []struct {
		name        string
		k           int
		singleEvery int // every singleEvery-th submission is a per-event Submit
		noBatch     bool
	}{
		{name: "k4-mixed", k: 4, singleEvery: 3},
		{name: "k1-submit", k: 1, singleEvery: 1},
		{name: "k1-mixed", k: 1, singleEvery: 5},
		{name: "k1-mixed-fallback", k: 1, singleEvery: 5, noBatch: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := make([]float64, tc.k)
			for i := range want {
				c := newCounter(t, 200, int64(100+i))
				for _, ev := range s {
					c.Process(ev)
				}
				want[i] = c.Estimate()
			}

			counters := make([]Counter, tc.k)
			for i := range counters {
				c := newCounter(t, 200, int64(100+i))
				counters[i] = c
				if tc.noBatch {
					counters[i] = noBatch{c}
				}
			}
			e, err := New(counters, WithBuffer(16))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(s); {
				if i%tc.singleEvery == 0 {
					if err := e.Submit(s[i]); err != nil {
						t.Fatal(err)
					}
					i++
					continue
				}
				hi := min(i+64, len(s))
				if err := e.SubmitBatch(s[i:hi]); err != nil {
					t.Fatal(err)
				}
				i = hi
			}
			final := e.Close()
			got := e.Estimates()
			if len(got) != tc.k {
				t.Fatalf("Estimates len = %d, want %d", len(got), tc.k)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("shard %d estimate = %v, sequential %v", i, got[i], want[i])
				}
			}
			if final != combine.Mean(want) {
				t.Fatalf("ensemble %v, mean of sequential %v", final, combine.Mean(want))
			}
			if e.Processed() != int64(len(s)) {
				t.Fatalf("processed %d, want %d", e.Processed(), len(s))
			}
		})
	}
}

// TestCloseSemantics: Close drains and is idempotent, the estimate it
// returns stays the published one, and every submission path reports
// ErrClosed afterwards, empty batches included.
func TestCloseSemantics(t *testing.T) {
	s := testEvents(2, 50)
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			counters := make([]Counter, k)
			for i := range counters {
				counters[i] = newCounter(t, 100, int64(1+i))
			}
			e, err := New(counters)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Submit(s[0]); err != nil {
				t.Fatal(err)
			}
			if err := e.SubmitBatch(s[1:10]); err != nil {
				t.Fatal(err)
			}
			a := e.Close()
			b := e.Close() // idempotent
			if a != b || math.IsNaN(a) {
				t.Fatalf("Close not idempotent: %v vs %v", a, b)
			}
			if e.Estimate() != a {
				t.Fatalf("Estimate after Close = %v, want %v", e.Estimate(), a)
			}
			if e.Processed() != 10 {
				t.Fatalf("processed %d, want 10", e.Processed())
			}
			if err := e.Submit(stream.Event{}); err != ErrClosed {
				t.Fatalf("Submit after Close = %v, want ErrClosed", err)
			}
			if err := e.SubmitBatch(s[:1]); err != ErrClosed {
				t.Fatalf("SubmitBatch after Close = %v, want ErrClosed", err)
			}
			if err := e.SubmitBatch(nil); err != ErrClosed {
				t.Fatalf("empty SubmitBatch after Close = %v, want ErrClosed", err)
			}
		})
	}
}

func TestEmptyBatchAndValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("New(nil) should error")
	}
	if _, err := New([]Counter{nil}); err == nil {
		t.Fatal("New with a nil counter should error")
	}
	e, err := New([]Counter{newCounter(t, 100, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitBatch(nil); err != nil {
		t.Fatalf("empty batch = %v, want nil", err)
	}
	if err := e.SubmitBatch([]stream.Event{}); err != nil {
		t.Fatalf("zero-length batch = %v, want nil", err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.Processed() != 0 {
		t.Fatalf("processed %d after empty batches, want 0", e.Processed())
	}
	if e.Close() != 0 {
		t.Fatal("estimate of an unfed counter should be 0")
	}
}

// TestConcurrentSubmitCloseEstimate exercises the ensemble under the race
// detector: concurrent producers (batches, or per-event Submit into one
// worker), estimate readers, then Close. Every event the producers submitted
// must be applied on every shard.
func TestConcurrentSubmitCloseEstimate(t *testing.T) {
	s := testEvents(3, 600)
	for _, tc := range []struct {
		name     string
		k        int
		perEvent bool
	}{
		{name: "k4-batches", k: 4},
		{name: "k1-submit", k: 1, perEvent: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counters := make([]Counter, tc.k)
			for i := range counters {
				counters[i] = newCounter(t, 150, int64(i))
			}
			e, err := New(counters, WithBuffer(2))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			const producers = 4
			chunk := (len(s) + producers - 1) / producers
			for i := 0; i < producers; i++ {
				lo, hi := i*chunk, min((i+1)*chunk, len(s))
				wg.Add(1)
				go func(evs stream.Stream) {
					defer wg.Done()
					for len(evs) > 0 {
						n, err := 1, error(nil)
						if tc.perEvent {
							err = e.Submit(evs[0])
						} else {
							n = min(32, len(evs))
							err = e.SubmitBatch(evs[:n])
						}
						if err != nil {
							t.Error(err)
							return
						}
						evs = evs[n:]
					}
				}(s[lo:hi])
			}
			stop := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
							_ = e.Estimate()
							_ = e.Processed()
							_ = e.Estimates()
						}
					}
				}()
			}
			wg.Wait()
			e.Close()
			close(stop)
			readers.Wait()
			if n := e.Processed(); n != int64(len(s)) {
				t.Fatalf("processed %d, want %d", n, len(s))
			}
			for i, w := range e.workers {
				if got := w.processed.Load(); got != int64(len(s)) {
					t.Fatalf("shard %d processed %d, want %d", i, got, len(s))
				}
			}
		})
	}
}
