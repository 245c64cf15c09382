package wsd

import "repro/internal/core"

// MultiCounter is the WSD counter: it counts one or several subgraph patterns
// over one shared stream. A single reservoir-maintained edge sample feeds one
// estimator per pattern, so serving P patterns costs one ingest — not P
// ingests of the same stream into P independent counters. The clique patterns
// additionally share their common-neighborhood enumeration per event.
//
// The first pattern is the primary one: the sampling weights are tuned for it
// (the WSD-H heuristic and the MDP state are computed from its completions),
// while every pattern's estimate remains unbiased. Put the pattern you care
// most about first. Estimate reads the primary; EstimateOf(p) reads pattern p
// (false when p is not counted) and Estimates every pattern in Patterns
// order. WithWindow and WithDecay apply to every pattern.
//
// A MultiCounter is a Counter and a ShardCounter: it is what NewCounter
// builds and RestoreCounter revives. It is not safe for concurrent use; wrap
// it in a Processor, which publishes all P estimates (read them with
// Processor.EstimateAt in Patterns order), or build a sharded deployment with
// NewShardedMultiCounter.
type MultiCounter = core.Counter

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
	return core.New(cfg)
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
