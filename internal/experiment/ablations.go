package experiment

import (
	"fmt"
	"math/rand"

	"repro/internal/pattern"
	"repro/internal/rl"
	"repro/internal/stream"
	"repro/internal/weights"
)

// GetTable implementations let the Registry render any result
// uniformly.

// GetTable returns the rendered table.
func (r *AccuracyResult) GetTable() *Table { return r.Table }

// GetTable returns the rendered table.
func (r *TrainingTimeResult) GetTable() *Table { return r.Table }

// GetTable returns the rendered table.
func (r *TransferResult) GetTable() *Table { return r.Table }

// GetTable returns the rendered table.
func (r *InsertOnlyResult) GetTable() *Table { return r.Table }

// GetTable returns the rendered table.
func (r *AblationResult) GetTable() *Table { return r.Table }

// GetTable returns the rendered table.
func (r *ScalabilityResult) GetTable() *Table { return r.Table }

// GetTable returns the rendered table.
func (r *OrderingResult) GetTable() *Table { return r.Table }

// GetTable returns the rendered table.
func (r *SweepResult) GetTable() *Table { return r.Table }

// GetTable returns the rendered table.
func (r *TrainingSizeResult) GetTable() *Table { return r.Table }

// GetTable returns the rendered table.
func (r *WeightRelResult) GetTable() *Table { return r.Table }

// WeightFamilyResult is the grid behind the weight-family ablation: the same
// WSD sampler under different heuristic weight functions (DESIGN.md Section
// 5), isolating how much of WSD-H's advantage comes from the specific
// 9|H(e)|+1 heuristic versus weighted sampling per se.
type WeightFamilyResult struct {
	Table *Table
	ARE   map[string]float64 // family -> ARE
}

// GetTable returns the rendered table.
func (r *WeightFamilyResult) GetTable() *Table { return r.Table }

// WeightFamilies compares weight-function families in the WSD framework on
// the citation test graph under massive deletion (triangles).
func WeightFamilies(prof Profile) (*WeightFamilyResult, error) {
	ds := mustDataset("cit-PT")
	sc := MassiveDefault()
	st := StreamFor(ds, sc, prof.Seed)
	res := &WeightFamilyResult{
		Table: &Table{ID: "Ablation W", Title: "weight families in WSD on cit-PT, massive deletion (ARE, triangles)",
			Header: []string{"W(e,R)", "ARE", "MARE"}},
		ARE: make(map[string]float64),
	}
	for _, fam := range []struct {
		name string
		fn   weights.Func
	}{
		{"uniform (1)", weights.Uniform()},
		{"|H(e)|+1", weights.Heuristic(1, 1)},
		{"9|H(e)|+1 (paper)", weights.GPSDefault()},
		{"deg(u)+deg(v)+1", weights.DegreeSum()},
		{"deg(u)*deg(v)+1", weights.DegreeProduct()},
	} {
		r, err := Run(RunConfig{
			Stream: st, Pattern: pattern.Triangle, Algo: AlgoWSDH,
			M: ds.DefaultM, Trials: prof.Trials, Seed: prof.Seed,
			Checkpoints: prof.Checkpoints, WeightOverride: fam.fn,
		})
		if err != nil {
			return nil, err
		}
		res.ARE[fam.name] = r.ARE.Mean
		res.Table.AddRow(fam.name, pct(r.ARE.Mean), pct(r.MARE.Mean))
	}
	return res, nil
}

// WRSAlphaResult is the grid behind the waiting-room fraction ablation.
type WRSAlphaResult struct {
	Table *Table
	ARE   map[string]float64
}

// GetTable returns the rendered table.
func (r *WRSAlphaResult) GetTable() *Table { return r.Table }

// WRSAlphaSweep sweeps the WRS waiting-room fraction alpha on the citation
// test graph under massive deletion (triangles).
func WRSAlphaSweep(prof Profile) (*WRSAlphaResult, error) {
	ds := mustDataset("cit-PT")
	sc := MassiveDefault()
	st := StreamFor(ds, sc, prof.Seed)
	res := &WRSAlphaResult{
		Table: &Table{ID: "Ablation alpha", Title: "WRS waiting-room fraction on cit-PT, massive deletion (ARE, triangles)",
			Header: []string{"alpha", "ARE", "MARE"}},
		ARE: make(map[string]float64),
	}
	for _, alpha := range []float64{0.05, 0.1, 0.2, 0.4} {
		r, err := Run(RunConfig{
			Stream: st, Pattern: pattern.Triangle, Algo: AlgoWRS,
			M: ds.DefaultM, Trials: prof.Trials, Seed: prof.Seed,
			Checkpoints: prof.Checkpoints, WRSAlpha: alpha,
		})
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%.2f", alpha)
		res.ARE[label] = r.ARE.Mean
		res.Table.AddRow(label, pct(r.ARE.Mean), pct(r.MARE.Mean))
	}
	return res, nil
}

// DDPGAblationResult is the grid behind the DDPG hyperparameter ablation.
type DDPGAblationResult struct {
	Table *Table
	ARE   map[string]float64
}

// GetTable returns the rendered table.
func (r *DDPGAblationResult) GetTable() *Table { return r.Table }

// DDPGAblation varies the learner's replay capacity and minibatch size
// around the paper's settings (10,000 and 128) and reports the resulting
// WSD-L accuracy on the citation test graph under light deletion, isolating
// how sensitive the learned weight function is to the two knobs the paper
// fixes by fiat.
func DDPGAblation(prof Profile) (*DDPGAblationResult, error) {
	train := mustDataset("cit-HE")
	test := mustDataset("cit-PT")
	sc := LightDefault()
	st := StreamFor(test, sc, prof.Seed)

	res := &DDPGAblationResult{
		Table: &Table{ID: "Ablation DDPG", Title: "DDPG replay/batch ablation (WSD-L ARE, triangles, cit-PT, light deletion)",
			Header: []string{"replay", "batch", "train time", "ARE"}},
		ARE: make(map[string]float64),
	}
	edges := train.Edges(prof.Seed)
	for _, cfg := range []struct {
		replay, batch int
	}{
		{1000, 32},
		{10000, 32},
		{10000, 128}, // the paper's setting
		{10000, 512},
		{50000, 128},
	} {
		streams := make([]stream.Stream, prof.TrainStreams)
		for i := range streams {
			streams[i] = sc.Build(edges, rand.New(rand.NewSource(prof.Seed+int64(i)*7919)))
		}
		policy, stats, err := rl.Train(rl.TrainConfig{
			Pattern:    pattern.Triangle,
			M:          train.DefaultM,
			Streams:    streams,
			Iterations: prof.TrainIterations,
			Seed:       prof.Seed,
			DDPG:       rl.Config{ReplayCap: cfg.replay, BatchSize: cfg.batch},
		})
		if err != nil {
			return nil, err
		}
		r, err := Run(RunConfig{
			Stream: st, Pattern: pattern.Triangle, Algo: AlgoWSDL,
			M: test.DefaultM, Trials: prof.Trials, Seed: prof.Seed,
			Checkpoints: prof.Checkpoints, Policy: policy,
		})
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%d/%d", cfg.replay, cfg.batch)
		res.ARE[label] = r.ARE.Mean
		res.Table.AddRow(fmt.Sprintf("%d", cfg.replay), fmt.Sprintf("%d", cfg.batch),
			secs(stats.Elapsed.Seconds()), pct(r.ARE.Mean))
	}
	return res, nil
}
