package wsd

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/xrand"
)

// MultiCounter counts several subgraph patterns over one shared stream: a
// single reservoir-maintained edge sample feeds one estimator per pattern, so
// serving P patterns costs one ingest — not P ingests of the same stream into
// P independent counters. The clique patterns additionally share their
// common-neighborhood enumeration per event.
//
// The first pattern is the primary one: the sampling weights are tuned for it
// (the WSD-H heuristic and the MDP state are computed from its completions),
// while every pattern's estimate remains unbiased. Put the pattern you care
// most about first. WithWindow and WithDecay apply to every pattern.
//
// A MultiCounter is not safe for concurrent use; wrap it in a Processor, or
// build a sharded deployment with NewShardedMultiCounter.
type MultiCounter struct {
	inner *core.Counter
}

// NewMultiCounter returns a multi-pattern WSD counter over the given patterns
// (primary first) with shared reservoir capacity m. The options are those of
// NewCounter; without options it is WSD-H with the heuristic computed on the
// primary pattern.
func NewMultiCounter(patterns []Pattern, m int, opts ...Option) (*MultiCounter, error) {
	o := newOptions(opts)
	cfg, err := coreConfig(&o, patterns, m)
	if err != nil {
		return nil, err
	}
	inner, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &MultiCounter{inner: inner}, nil
}

// Process consumes one stream event, updating every pattern's estimate.
func (c *MultiCounter) Process(ev Event) { c.inner.Process(ev) }

// ProcessBatch consumes a slice of events in order (the batched fast path).
func (c *MultiCounter) ProcessBatch(evs []Event) { c.inner.ProcessBatch(evs) }

// Patterns returns the counted patterns in estimator order, primary first.
func (c *MultiCounter) Patterns() []Pattern { return c.inner.Patterns() }

// Estimate returns the current unbiased estimate for pattern p. It fails if p
// is not one of the counter's patterns.
func (c *MultiCounter) Estimate(p Pattern) (float64, error) {
	est, ok := c.inner.EstimateOf(p)
	if !ok {
		return 0, fmt.Errorf("wsd: counter does not count %s (patterns: %v)", p, c.inner.Patterns())
	}
	return est, nil
}

// Estimates returns every pattern's estimate in Patterns order.
func (c *MultiCounter) Estimates() []float64 { return c.inner.Estimates() }

// SampleSize returns the current number of sampled edges (shared by all
// patterns).
func (c *MultiCounter) SampleSize() int { return c.inner.SampleSize() }

// Name identifies the algorithm for reports.
func (c *MultiCounter) Name() string { return c.inner.Name() }

// Checkpoint serializes the counter's complete state — sample, thresholds,
// every pattern's estimate, temporal bookkeeping, and RNG state — for
// RestoreMultiCounter.
func (c *MultiCounter) Checkpoint() ([]byte, error) { return c.inner.Checkpoint() }

// Core returns the underlying counter for use with the ingestion layers:
// NewProcessor(mc.Core(), ...) publishes all P estimates (read them with
// Processor.EstimateAt in Patterns order). The caller must not drive Core
// and the wrapper concurrently.
func (c *MultiCounter) Core() *core.Counter { return c.inner }

// RestoreMultiCounter revives a multi-pattern counter from a Checkpoint blob.
// As with RestoreCounter, heuristic weight options must match the original
// construction, while a learned policy is revived from the blob itself when
// no explicit weight option is given; the patterns, budget, estimates,
// temporal mode, and RNG state come from the blob, and the restored counter
// continues bit-identically on every pattern. The Snapshot blob of a
// Processor wrapping a multi-pattern counter's Core restores here too.
func RestoreMultiCounter(data []byte, opts ...Option) (*MultiCounter, error) {
	o := newOptions(opts)
	snap, err := decodeCounterBlob(data, core.DecodeSnapshot)
	if err != nil {
		return nil, err
	}
	inner, err := restoreCore(snap, &o, xrand.New(o.seed))
	if err != nil {
		return nil, err
	}
	return &MultiCounter{inner: inner}, nil
}

// NewShardedMultiCounter returns an ensemble of shards independently seeded
// multi-pattern counters, all fed every event: the multi-pattern analogue of
// NewShardedCounter, and the counter behind a multi-pattern serving
// deployment. Read the per-pattern combined estimates with
// ShardedCounter.EstimateAt (indexes follow the patterns argument) or
// EstimateVector.
//
// Budget semantics and options match NewShardedCounter, with the split-budget
// floor checked against the largest pattern.
func NewShardedMultiCounter(patterns []Pattern, m, shards int, opts ...Option) (*ShardedCounter, error) {
	return newShardedCounter(patterns, m, shards, opts)
}

// MultiPatterns is a convenience constructor for the patterns argument:
// MultiPatterns(wsd.TrianglePattern, wsd.WedgePattern).
func MultiPatterns(primary Pattern, rest ...Pattern) []Pattern {
	return append([]pattern.Kind{primary}, rest...)
}
