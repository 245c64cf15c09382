package experiment

import (
	"fmt"

	"repro/internal/pattern"
	"repro/internal/rl"
	"repro/internal/weights"
)

// WeightFamilyResult is the grid behind the weight-family ablation: the same
// WSD sampler under different heuristic weight functions (DESIGN.md Section
// 5), isolating how much of WSD-H's advantage comes from the specific
// 9|H(e)|+1 heuristic versus weighted sampling per se.
type WeightFamilyResult struct {
	*Table
	ARE map[string]float64 // family -> ARE
}

// WeightFamilies compares weight-function families in the WSD framework on
// the citation test graph under massive deletion (triangles).
func WeightFamilies(prof Profile) (*WeightFamilyResult, error) {
	families := []struct {
		name string
		fn   weights.Func
	}{
		{"uniform (1)", weights.Uniform()},
		{"|H(e)|+1", weights.Heuristic(1, 1)},
		{"9|H(e)|+1 (paper)", weights.GPSDefault()},
		{"deg(u)+deg(v)+1", weights.DegreeSum()},
		{"deg(u)*deg(v)+1", weights.DegreeProduct()},
	}
	cells := make([]cell, len(families))
	for i, fam := range families {
		cells[i] = cell{algo: AlgoWSDH, weight: fam.fn}
	}
	runs, err := grid(prof, []row{citPT(MassiveDefault(), prof)}, cells)
	if err != nil {
		return nil, err
	}
	res := &WeightFamilyResult{
		Table: &Table{ID: "Ablation W", Title: "weight families in WSD on cit-PT, massive deletion (ARE, triangles)",
			Header: []string{"W(e,R)", "ARE", "MARE"}},
		ARE: make(map[string]float64),
	}
	for i, fam := range families {
		r := runs[0][i]
		res.ARE[fam.name] = r.ARE.Mean
		res.AddRow(fam.name, pct(r.ARE.Mean), pct(r.MARE.Mean))
	}
	return res, nil
}

// citPT is the one-row grid most ablations run on: triangles on the citation
// test graph under sc at its default budget.
func citPT(sc Scenario, prof Profile) row {
	ds := mustDataset("cit-PT")
	return row{label: ds.Name, stream: StreamFor(ds, sc, prof.Seed), pattern: pattern.Triangle, m: ds.DefaultM}
}

// WRSAlphaResult is the grid behind the waiting-room fraction ablation.
type WRSAlphaResult struct {
	*Table
	ARE map[string]float64
}

// WRSAlphaSweep sweeps the WRS waiting-room fraction alpha on the citation
// test graph under massive deletion (triangles).
func WRSAlphaSweep(prof Profile) (*WRSAlphaResult, error) {
	alphas := []float64{0.05, 0.1, 0.2, 0.4}
	cells := make([]cell, len(alphas))
	for i, alpha := range alphas {
		cells[i] = cell{algo: AlgoWRS, wrsAlpha: alpha}
	}
	runs, err := grid(prof, []row{citPT(MassiveDefault(), prof)}, cells)
	if err != nil {
		return nil, err
	}
	res := &WRSAlphaResult{
		Table: &Table{ID: "Ablation alpha", Title: "WRS waiting-room fraction on cit-PT, massive deletion (ARE, triangles)",
			Header: []string{"alpha", "ARE", "MARE"}},
		ARE: make(map[string]float64),
	}
	for i, alpha := range alphas {
		r := runs[0][i]
		label := fmt.Sprintf("%.2f", alpha)
		res.ARE[label] = r.ARE.Mean
		res.AddRow(label, pct(r.ARE.Mean), pct(r.MARE.Mean))
	}
	return res, nil
}

// DDPGAblationResult is the grid behind the DDPG hyperparameter ablation.
type DDPGAblationResult struct {
	*Table
	ARE map[string]float64
}

// DDPGAblation varies the learner's replay capacity and minibatch size
// around the paper's settings (10,000 and 128) and reports the resulting
// WSD-L accuracy on the citation test graph under light deletion, isolating
// how sensitive the learned weight function is to the two knobs the paper
// fixes by fiat.
func DDPGAblation(prof Profile) (*DDPGAblationResult, error) {
	train := mustDataset("cit-HE")
	sc := LightDefault()
	configs := []rl.Config{
		{ReplayCap: 1000, BatchSize: 32},
		{ReplayCap: 10000, BatchSize: 32},
		{ReplayCap: 10000, BatchSize: 128}, // the paper's setting
		{ReplayCap: 10000, BatchSize: 512},
		{ReplayCap: 50000, BatchSize: 128},
	}
	cells := make([]cell, len(configs))
	trainSecs := make([]float64, len(configs))
	for i, ddpg := range configs {
		policy, stats, err := trainOn(train.Edges(prof.Seed), sc, prof.Seed, 7919,
			rl.TrainConfig{Pattern: pattern.Triangle, M: train.DefaultM, DDPG: ddpg}, prof)
		if err != nil {
			return nil, err
		}
		cells[i], trainSecs[i] = cell{algo: AlgoWSDL, policy: policy}, stats.Elapsed.Seconds()
	}
	runs, err := grid(prof, []row{citPT(sc, prof)}, cells)
	if err != nil {
		return nil, err
	}
	res := &DDPGAblationResult{
		Table: &Table{ID: "Ablation DDPG", Title: "DDPG replay/batch ablation (WSD-L ARE, triangles, cit-PT, light deletion)",
			Header: []string{"replay", "batch", "train time", "ARE"}},
		ARE: make(map[string]float64),
	}
	for i, ddpg := range configs {
		are := runs[0][i].ARE.Mean
		res.ARE[fmt.Sprintf("%d/%d", ddpg.ReplayCap, ddpg.BatchSize)] = are
		res.AddRow(fmt.Sprintf("%d", ddpg.ReplayCap), fmt.Sprintf("%d", ddpg.BatchSize), secs(trainSecs[i]), pct(are))
	}
	return res, nil
}
