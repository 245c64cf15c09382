package experiment

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/rl"
	"repro/internal/stream"
)

// Profile scales the experiment suite. Quick keeps benchmarks responsive;
// Full approaches the paper's protocol (100 trials, 1,000 DDPG iterations).
type Profile struct {
	// Trials is the number of sampling repetitions per cell.
	Trials int
	// Checkpoints is the MARE sampling resolution along the stream.
	Checkpoints int
	// TrainIterations is the DDPG gradient-update budget per policy.
	TrainIterations int
	// TrainStreams is the number of training streams generated per policy
	// (the paper uses 10).
	TrainStreams int
	// Seed anchors all randomness in the suite.
	Seed int64
}

// Quick is the profile used by the go test benchmarks.
func Quick() Profile {
	return Profile{Trials: 5, Checkpoints: 30, TrainIterations: 600, TrainStreams: 4, Seed: 1}
}

// Full approaches the paper's protocol; used by cmd/wsdbench -full.
func Full() Profile {
	return Profile{Trials: 100, Checkpoints: 100, TrainIterations: 1000, TrainStreams: 10, Seed: 1}
}

type policyKey struct {
	train    string
	pat      pattern.Kind
	scenario Scenario // full parameters: the paper retrains per beta (Fig. 5)
	agg      core.TemporalAgg
	iters    int
	seed     int64
}

type policyEntry struct {
	once   sync.Once
	policy *rl.Policy
	stats  rl.TrainStats
	err    error
}

var policyCache sync.Map

// TrainPolicy trains (or returns the cached) WSD-L policy for a training
// dataset, pattern and scenario, following the paper's protocol: the policy
// used on a test graph is trained on the same-category training graph with
// multiple streams generated under the same scenario parameters.
func TrainPolicy(train Dataset, pat pattern.Kind, sc Scenario, agg core.TemporalAgg, prof Profile) (*rl.Policy, rl.TrainStats, error) {
	key := policyKey{train: train.Name, pat: pat, scenario: sc, agg: agg, iters: prof.TrainIterations, seed: prof.Seed}
	v, _ := policyCache.LoadOrStore(key, &policyEntry{})
	entry := v.(*policyEntry)
	entry.once.Do(func() {
		entry.policy, entry.stats, entry.err = trainPolicy(train, pat, sc, agg, prof)
	})
	return entry.policy, entry.stats, entry.err
}

func trainPolicy(train Dataset, pat pattern.Kind, sc Scenario, agg core.TemporalAgg, prof Profile) (*rl.Policy, rl.TrainStats, error) {
	policy, stats, err := trainOn(train.Edges(prof.Seed), sc, prof.Seed, 7919,
		rl.TrainConfig{Pattern: pat, M: train.DefaultM, TemporalAgg: agg}, prof)
	if err != nil {
		return nil, stats, fmt.Errorf("experiment: training %s/%v/%v: %w", train.Name, pat, sc.Kind, err)
	}
	return policy, stats, nil
}

// trainOn trains a WSD-L policy with DDPG on prof.TrainStreams streams of sc
// over edges, stream i seeded by seed+i*stride; cfg supplies the pattern,
// budget and learner settings, prof the iteration budget and learner seed.
func trainOn(edges []graph.Edge, sc Scenario, seed, stride int64, cfg rl.TrainConfig, prof Profile) (*rl.Policy, rl.TrainStats, error) {
	cfg.Streams = make([]stream.Stream, prof.TrainStreams)
	for i := range cfg.Streams {
		cfg.Streams[i] = sc.Build(edges, rand.New(rand.NewSource(seed+int64(i)*stride)))
	}
	cfg.Iterations, cfg.Seed = prof.TrainIterations, prof.Seed
	return rl.Train(cfg)
}

// PolicyForTest resolves the WSD-L policy for a test dataset (same-category
// training graph, Table I pairing).
func PolicyForTest(test Dataset, pat pattern.Kind, sc Scenario, prof Profile) (*rl.Policy, error) {
	return learned(test, pat, sc, prof)(core.AggMax)
}

// learned resolves, by temporal aggregation, the WSD-L policy for a test
// dataset: the one trained on its category's training graph for pat under
// sc.
func learned(test Dataset, pat pattern.Kind, sc Scenario, prof Profile) func(core.TemporalAgg) (*rl.Policy, error) {
	return func(agg core.TemporalAgg) (*rl.Policy, error) {
		train, err := DatasetByName(test.Train)
		if err != nil {
			return nil, err
		}
		p, _, err := TrainPolicy(train, pat, sc, agg, prof)
		return p, err
	}
}
