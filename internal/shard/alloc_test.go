package shard

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/stream"
	"repro/internal/weights"
	"repro/internal/xrand"
)

// allocEnsemble starts an ensemble of shards allocation-free core counters.
func allocEnsemble(t *testing.T, shards int) *Ensemble {
	t.Helper()
	counters := make([]Counter, shards)
	for i := range counters {
		c, err := core.New(core.Config{
			M:            64,
			Pattern:      pattern.Triangle,
			Weight:       weights.GPSDefault(),
			Rng:          xrand.NewSequence(3, int64(i)),
			SkipTemporal: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		counters[i] = c
	}
	e, err := New(counters)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// allocBlock is a self-contained insert+delete churn block (the graph is
// empty again at the end), replayable as a steady-state ingest unit.
func allocBlock() []stream.Event {
	block := make([]stream.Event, 0, 2048)
	for i := 0; i < 1024; i++ {
		ed := graph.NewEdge(graph.VertexID(i%29), graph.VertexID(i%29+1+i%7))
		block = append(block, stream.Event{Op: stream.Insert, Edge: ed})
		block = append(block, stream.Event{Op: stream.Delete, Edge: ed})
	}
	return block
}

// pinAllocs runs one block cycle a few times to grow every buffer, then pins
// its steady-state allocation rate per event. Each cycle ends in a Quiesce,
// which drains the workers into the measurement window; its barrier channels
// are the handful of allocations the budget absorbs.
func pinAllocs(t *testing.T, name string, e *Ensemble, events int, submit func()) {
	t.Helper()
	cycle := func() {
		submit()
		if err := e.Quiesce(func(int, Counter) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	avg := testing.AllocsPerRun(5, cycle)
	perEvent := avg / float64(events)
	t.Logf("%s: %.4f allocs/event (%.1f per block of %d, %d shards)", name, perEvent, avg, events, e.Shards())
	if perEvent > 0.02 {
		t.Errorf("%s allocates %.4f/event, budget 0.02 — the zero-alloc path regressed", name, perEvent)
	}
}

// TestSubmitAllocs pins the per-event path of the single-worker ingestion
// loop: each Submit carries its event by value in the feed envelope, so a
// one-shard ensemble fed event by event allocates nothing per event.
func TestSubmitAllocs(t *testing.T) {
	e := allocEnsemble(t, 1)
	defer e.Close()
	block := allocBlock()
	pinAllocs(t, "Submit", e, len(block), func() {
		for _, ev := range block {
			if err := e.Submit(ev); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestSubmitBatchAllocs pins the plain batch path — submit, channel
// transfer, worker apply, estimate publication — at effectively zero
// steady-state allocations per event.
func TestSubmitBatchAllocs(t *testing.T) {
	e := allocEnsemble(t, 1)
	defer e.Close()
	block := allocBlock()
	pinAllocs(t, "SubmitBatch", e, len(block), func() {
		if err := e.SubmitBatch(block); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSubmitPooledAllocs pins the pooled producer path (Get, fill, submit)
// for one worker and for the sharded broadcast: one pooled buffer crosses K
// feed channels by reference, every worker applies it through the
// allocation-free core path, and the last release hands the buffer back to
// the pool, which must return the same buffer every cycle.
func TestSubmitPooledAllocs(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("k%d", shards), func(t *testing.T) {
			e := allocEnsemble(t, shards)
			defer e.Close()
			block := allocBlock()
			var pool stream.BatchPool
			pinAllocs(t, "SubmitPooled", e, len(block), func() {
				b := pool.Get()
				b.Events = append(b.Events, block...)
				if err := e.SubmitPooled(b); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestEstimateAllocs pins the reader side: Estimate combines the published
// per-shard values in the ensemble's cached scratch slice, so a reader
// polling a Processor (one shard) or an ensemble allocates nothing per read.
func TestEstimateAllocs(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("k%d", shards), func(t *testing.T) {
			e := allocEnsemble(t, shards)
			defer e.Close()
			if err := e.SubmitBatch(allocBlock()); err != nil {
				t.Fatal(err)
			}
			var sink float64
			avg := testing.AllocsPerRun(1000, func() { sink += e.Estimate() })
			if avg > 0.02 {
				t.Errorf("Estimate allocates %.4f per call at %d shards, budget 0.02", avg, shards)
			}
		})
	}
}
