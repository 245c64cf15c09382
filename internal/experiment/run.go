package experiment

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/rl"
	"repro/internal/sampling"
	"repro/internal/stream"
	"repro/internal/weights"
)

// Counter is the single-pass estimator surface every algorithm exposes.
type Counter interface {
	Process(ev stream.Event)
	Estimate() float64
	Name() string
}

// Algo identifies a comparison algorithm from the paper's evaluation.
type Algo int

const (
	// AlgoWSDL is WSD with the RL-learned weight function.
	AlgoWSDL Algo = iota
	// AlgoWSDH is WSD with the heuristic weight 9|H(e)|+1.
	AlgoWSDH
	// AlgoGPSA is the lazy-deletion GPS adaptation.
	AlgoGPSA
	// AlgoGPS is insertion-only graph priority sampling.
	AlgoGPS
	// AlgoTriest is TRIEST-FD.
	AlgoTriest
	// AlgoThinkD is ThinkD.
	AlgoThinkD
	// AlgoWRS is waiting room sampling.
	AlgoWRS
)

// String implements fmt.Stringer, matching the paper's column labels.
func (a Algo) String() string {
	switch a {
	case AlgoWSDL:
		return "WSD-L"
	case AlgoWSDH:
		return "WSD-H"
	case AlgoGPSA:
		return "GPS-A"
	case AlgoGPS:
		return "GPS"
	case AlgoTriest:
		return "Triest"
	case AlgoThinkD:
		return "ThinkD"
	case AlgoWRS:
		return "WRS"
	}
	return fmt.Sprintf("Algo(%d)", int(a))
}

// FullyDynamicAlgos returns the paper's six-algorithm comparison set in table
// column order.
func FullyDynamicAlgos() []Algo {
	return []Algo{AlgoWSDL, AlgoWSDH, AlgoGPSA, AlgoTriest, AlgoThinkD, AlgoWRS}
}

// RunConfig describes one experiment cell: a stream, a pattern, one
// algorithm, and the trial protocol.
type RunConfig struct {
	Stream  stream.Stream
	Pattern pattern.Kind
	Algo    Algo
	// M is the storage budget; 0 panics (callers set it from the dataset).
	M int
	// Trials is the number of independent sampling repetitions averaged
	// (the paper uses 100).
	Trials int
	// Seed derives every trial's sampler randomness.
	Seed int64
	// Checkpoints is the number of evenly spaced truth comparisons feeding
	// MARE. 0 means 50.
	Checkpoints int
	// Policy backs AlgoWSDL. Required for that algorithm.
	Policy *rl.Policy
	// WeightOverride, when set, replaces the algorithm's weight function
	// (weight-family ablations). Only meaningful for the weighted samplers.
	// The function must be safe to share across concurrent trials.
	WeightOverride weights.Func
	// TemporalAgg configures the WSD state aggregation (Table XIII).
	TemporalAgg core.TemporalAgg
	// WRSAlpha overrides the WRS waiting-room fraction (alpha ablation);
	// 0 keeps the default.
	WRSAlpha float64
}

// RunResult aggregates an experiment cell over its trials.
type RunResult struct {
	ARE     metrics.Summary
	MARE    metrics.Summary
	Seconds metrics.Summary // wall time per trial, seconds
	Truth   float64         // exact count at stream end
	Events  int
}

// mareTruthFloor is the minimum exact count for a checkpoint to enter MARE
// (see the comment at the observation site).
const mareTruthFloor = 100

// truthTimeline holds the exact counts at checkpoint boundaries, computed
// once per (stream, pattern) and shared by all trials; the paper's protocol
// keeps the stream fixed and repeats only the sampling.
type truthTimeline struct {
	at    []int     // event indexes (1-based, truth measured after the event)
	truth []float64 // exact count after event at[i]
	final float64
}

func computeTruth(s stream.Stream, k pattern.Kind, checkpoints int) truthTimeline {
	if checkpoints < 1 {
		checkpoints = 1
	}
	step := len(s) / checkpoints
	if step < 1 {
		step = 1
	}
	ex := exact.New(k)
	tl := truthTimeline{}
	for i, ev := range s {
		ex.Apply(ev)
		if (i+1)%step == 0 || i == len(s)-1 {
			tl.at = append(tl.at, i+1)
			tl.truth = append(tl.truth, float64(ex.Count(k)))
		}
	}
	tl.final = float64(ex.Count(k))
	return tl
}

// NewCounter constructs the counter for an algorithm. Exposed so the facade,
// examples and CLIs share one factory.
func NewCounter(cfg RunConfig, rng *rand.Rand) (Counter, error) {
	if cfg.M <= 0 {
		return nil, fmt.Errorf("experiment: RunConfig.M must be positive")
	}
	switch cfg.Algo {
	case AlgoWSDL:
		w := cfg.WeightOverride
		if w == nil {
			if cfg.Policy == nil {
				return nil, fmt.Errorf("experiment: WSD-L requires a trained policy")
			}
			w = cfg.Policy.Func()
		}
		return core.New(core.Config{M: cfg.M, Pattern: cfg.Pattern, Weight: w, TemporalAgg: cfg.TemporalAgg, Rng: rng})
	case AlgoWSDH:
		w := cfg.WeightOverride
		if w == nil {
			w = weights.GPSDefault()
		}
		return core.New(core.Config{M: cfg.M, Pattern: cfg.Pattern, Weight: w, TemporalAgg: cfg.TemporalAgg, Rng: rng})
	case AlgoGPSA:
		return sampling.NewGPSA(sampling.GPSConfig{M: cfg.M, Pattern: cfg.Pattern, Weight: cfg.WeightOverride, Rng: rng})
	case AlgoGPS:
		return sampling.NewGPS(sampling.GPSConfig{M: cfg.M, Pattern: cfg.Pattern, Weight: cfg.WeightOverride, Rng: rng})
	case AlgoTriest:
		return sampling.NewTriest(sampling.UniformConfig{M: cfg.M, Pattern: cfg.Pattern, Rng: rng})
	case AlgoThinkD:
		return sampling.NewThinkD(sampling.UniformConfig{M: cfg.M, Pattern: cfg.Pattern, Rng: rng})
	case AlgoWRS:
		return sampling.NewWRS(sampling.WRSConfig{
			UniformConfig: sampling.UniformConfig{M: cfg.M, Pattern: cfg.Pattern, Rng: rng},
			Alpha:         cfg.WRSAlpha,
		})
	}
	return nil, fmt.Errorf("experiment: unknown algorithm %v", cfg.Algo)
}

// Run executes one experiment cell: Trials independent sampling passes over
// the same stream, compared against the exact timeline.
func Run(cfg RunConfig) (RunResult, error) {
	cfg = cfg.withDefaults()
	return cfg.against(computeTruth(cfg.Stream, cfg.Pattern, cfg.Checkpoints))
}

// withDefaults fills the trial protocol's zero values.
func (cfg RunConfig) withDefaults() RunConfig {
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	if cfg.Checkpoints <= 0 {
		cfg.Checkpoints = 50
	}
	return cfg
}

// row is one grid row: a labelled stream, the pattern counted on it, the
// storage budget, and the WSD-L policy its cells are scored with (resolved
// by their temporal aggregation; nil when every WSD-L cell names its own).
// A row with a section opens that table section.
type row struct {
	label, section string
	stream         stream.Stream
	pattern        pattern.Kind
	m              int
	policy         func(core.TemporalAgg) (*rl.Policy, error)
}

// cell is one grid column: an algorithm and its knobs.
type cell struct {
	algo     Algo
	policy   *rl.Policy // WSD-L: overrides the row's policy
	weight   weights.Func
	agg      core.TemporalAgg
	wrsAlpha float64
}

// algoCells returns one plain cell per algorithm.
func algoCells(algos ...Algo) []cell {
	out := make([]cell, len(algos))
	for i, a := range algos {
		out[i] = cell{algo: a}
	}
	return out
}

// grid runs every cell against every row under prof's trial protocol. Each
// row's exact timeline is computed once, from that row's own stream, and
// shared by its cells. out[i][j] is cell j on row i.
func grid(prof Profile, rows []row, cells []cell) ([][]RunResult, error) {
	out := make([][]RunResult, len(rows))
	for i, r := range rows {
		cfg := RunConfig{Stream: r.stream, Pattern: r.pattern, M: r.m,
			Trials: prof.Trials, Seed: prof.Seed, Checkpoints: prof.Checkpoints}.withDefaults()
		tl := computeTruth(r.stream, r.pattern, cfg.Checkpoints)
		out[i] = make([]RunResult, len(cells))
		for j, c := range cells {
			cfg.Algo, cfg.Policy, cfg.WeightOverride, cfg.TemporalAgg, cfg.WRSAlpha = c.algo, c.policy, c.weight, c.agg, c.wrsAlpha
			if cfg.Policy == nil && r.policy != nil {
				p, err := r.policy(c.agg)
				if err != nil {
					return nil, err
				}
				cfg.Policy = p
			}
			res, err := cfg.against(tl)
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", r.label, c.algo, err)
			}
			out[i][j] = res
		}
	}
	return out, nil
}

// against runs cfg's trials, scoring each against the exact timeline tl of
// cfg.Stream.
func (cfg RunConfig) against(tl truthTimeline) (RunResult, error) {
	if len(cfg.Stream) == 0 {
		return RunResult{}, fmt.Errorf("experiment: empty stream")
	}

	ares := make([]float64, cfg.Trials)
	mares := make([]float64, cfg.Trials)
	secs := make([]float64, cfg.Trials)
	errs := make([]error, cfg.Trials)

	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for trial := 0; trial < cfg.Trials; trial++ {
		wg.Add(1)
		go func(trial int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)*1_000_003))
			c, err := NewCounter(cfg, rng)
			if err != nil {
				errs[trial] = err
				return
			}
			var mare metrics.MARE
			next := 0
			start := time.Now()
			for i, ev := range cfg.Stream {
				c.Process(ev)
				if next < len(tl.at) && i+1 == tl.at[next] {
					// Checkpoints where the exact count is tiny (right after a
					// mass deletion at reduced scale) make relative error
					// degenerate; the paper's streams never reach such counts.
					if tl.truth[next] >= mareTruthFloor {
						mare.Observe(c.Estimate(), tl.truth[next])
					}
					next++
				}
			}
			secs[trial] = time.Since(start).Seconds()
			ares[trial] = metrics.RelErr(c.Estimate(), tl.final)
			mares[trial] = mare.Value()
		}(trial)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return RunResult{}, err
		}
	}
	return RunResult{
		ARE:     metrics.Summarize(ares),
		MARE:    metrics.Summarize(mares),
		Seconds: metrics.Summarize(secs),
		Truth:   tl.final,
		Events:  len(cfg.Stream),
	}, nil
}
