package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/weights"
)

// ThroughputResult is the ingestion-throughput comparison: the
// single-goroutine pipeline (a one-shard ensemble fed per event) versus the
// sharded ensemble at increasing shard counts, at equal total reservoir
// memory.
type ThroughputResult struct {
	Table *Table
}

// GetTable implements the wsdbench result interface.
func (r *ThroughputResult) GetTable() *Table { return r.Table }

// The stream, total budget, and batch size match the root-level
// BenchmarkSharded setup (trial seeding differs: each trial here draws fresh
// independent sampler seeds): 4-clique counting over a dense community graph
// with a large sampling fraction, the regime where completion enumeration
// (quadratic in the sampled neighborhood) dominates per-event cost and
// splitting the budget across shards reduces total work.
const (
	throughputM     = 9216
	throughputBatch = 512
)

func throughputStream(seed int64) stream.Stream {
	rng := rand.New(rand.NewSource(seed))
	edges := gen.PlantedPartition(12, 50, 0.9, 0.002, rng)
	return stream.LightDeletion(edges, 0.1, rng)
}

// Throughput measures ingestion throughput (events/s) and end-of-stream ARE
// for the single-goroutine pipeline (one counter behind the per-event Submit
// path of a one-shard ensemble) and for sharded ensembles of 2, 4, and 8
// shards at equal total reservoir memory, averaged over p.Trials runs.
func Throughput(p Profile) (*ThroughputResult, error) {
	s := throughputStream(p.Seed)
	ex := exact.New(pattern.FourClique)
	for _, ev := range s {
		ex.Apply(ev)
	}
	truth := float64(ex.Count(pattern.FourClique))

	trials := p.Trials
	if trials < 1 {
		trials = 1
	}
	newCounter := func(m int, seed int64) (*core.Counter, error) {
		return core.New(core.Config{M: m, Pattern: pattern.FourClique,
			Weight: weights.GPSDefault(), Rng: rand.New(rand.NewSource(seed)),
			SkipTemporal: true})
	}

	type row struct {
		name    string
		evRate  float64
		are     float64
		shardM  int
		speedup float64
	}
	var rows []row

	// Baseline: one counter behind the per-event Submit path.
	var base row
	{
		var secs, are float64
		for trial := 0; trial < trials; trial++ {
			c, err := newCounter(throughputM, p.Seed+int64(trial))
			if err != nil {
				return nil, err
			}
			proc, err := shard.New([]shard.Counter{c}, shard.WithBuffer(1024))
			if err != nil {
				return nil, err
			}
			start := time.Now()
			for _, ev := range s {
				if err := proc.Submit(ev); err != nil {
					return nil, err
				}
			}
			est := proc.Close()
			secs += time.Since(start).Seconds()
			are += metrics.RelErr(est, truth)
		}
		base = row{
			name:   "pipeline (1 goroutine)",
			evRate: float64(len(s)) * float64(trials) / secs,
			are:    are / float64(trials),
			shardM: throughputM,
		}
		base.speedup = 1
		rows = append(rows, base)
	}

	for _, shards := range []int{2, 4, 8} {
		var secs, are float64
		for trial := 0; trial < trials; trial++ {
			budgets := shard.SplitBudget(throughputM, shards)
			counters := make([]shard.Counter, shards)
			for i := range counters {
				c, err := newCounter(budgets[i], p.Seed+int64(trial)*100+int64(i))
				if err != nil {
					return nil, err
				}
				counters[i] = c
			}
			e, err := shard.New(counters)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			for lo := 0; lo < len(s); lo += throughputBatch {
				hi := lo + throughputBatch
				if hi > len(s) {
					hi = len(s)
				}
				if err := e.SubmitBatch(s[lo:hi]); err != nil {
					return nil, err
				}
			}
			est := e.Close()
			secs += time.Since(start).Seconds()
			are += metrics.RelErr(est, truth)
		}
		rows = append(rows, row{
			name:    fmt.Sprintf("sharded (K=%d)", shards),
			evRate:  float64(len(s)) * float64(trials) / secs,
			are:     are / float64(trials),
			shardM:  throughputM / shards,
			speedup: (float64(len(s)) * float64(trials) / secs) / base.evRate,
		})
	}

	t := &Table{
		ID:     "throughput",
		Title:  "Ingestion throughput: single pipeline vs sharded ensemble (4-clique, equal total memory)",
		Header: []string{"config", "m/shard", "events/s", "speedup", "ARE"},
		Notes: []string{
			fmt.Sprintf("stream: %d events, planted-partition communities; exact 4-cliques at end: %.0f", len(s), truth),
			fmt.Sprintf("total reservoir budget %d edges in every config; batches of %d events", throughputM, throughputBatch),
			"split-budget shards trade 4-clique accuracy for throughput; see BenchmarkSharded and internal/shard",
		},
	}
	for _, r := range rows {
		t.AddRow(r.name, fmt.Sprintf("%d", r.shardM),
			fmt.Sprintf("%.0f", r.evRate), fmt.Sprintf("%.2fx", r.speedup), pct(r.are))
	}
	return &ThroughputResult{Table: t}, nil
}
