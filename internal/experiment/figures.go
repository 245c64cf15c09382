package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/rl"
	"repro/internal/stream"
	"repro/internal/weights"
)

// ScalabilityPoint is one x-position of Fig. 1 / Fig. 3.
type ScalabilityPoint struct {
	Events  int
	AREWSDL float64
	AREWSDH float64
	SecWSDL float64
	SecWSDH float64
}

// ScalabilityResult is the series behind Fig. 1 (massive) / Fig. 3 (light).
type ScalabilityResult struct {
	Table  *Table
	Points []ScalabilityPoint
}

// scalabilityBase builds the big synthetic stream once per scenario; the
// figure's x-axis is realized as prefixes of it, exactly like the paper picks
// the first 10M..5B events of one 5B-edge stream.
var scalabilityCache sync.Map

func scalabilityStream(sc Scenario, seed int64) stream.Stream {
	key := fmt.Sprintf("%v/%d", sc.Kind, seed)
	if v, ok := scalabilityCache.Load(key); ok {
		return v.(stream.Stream)
	}
	rng := rand.New(rand.NewSource(seed))
	edges := gen.ForestFire(30000, 0.42, rng)
	var st stream.Stream
	if sc.Kind == Massive {
		// Place the mass deletions inside the first 3% of insertions so that
		// every prefix used as an x-axis point (the smallest is ~5k events)
		// has both deletion churn and a rebuild window — the proportions
		// every prefix of the paper's billion-event stream has.
		st = stream.MassiveDeletionEvents(edges, 3, sc.BetaM, 0.97, rand.New(rand.NewSource(seed+99)))
	} else {
		st = sc.Build(edges, rand.New(rand.NewSource(seed+99)))
	}
	actual, _ := scalabilityCache.LoadOrStore(key, st)
	return actual.(stream.Stream)
}

// Scalability reproduces Fig. 1 / Fig. 3: ARE and running time of WSD-L and
// WSD-H over increasing stream sizes with a fixed reservoir.
func Scalability(id string, sc Scenario, prof Profile) (*ScalabilityResult, error) {
	full := scalabilityStream(sc, prof.Seed)
	const m = 800
	sizes := []int{5000, 10000, 20000, 40000, 80000}
	policy, _, err := TrainPolicy(mustDataset("syn-train"), pattern.Triangle, sc, core.AggMax, prof)
	if err != nil {
		return nil, err
	}
	res := &ScalabilityResult{Table: &Table{
		ID:     id,
		Title:  fmt.Sprintf("scalability of counting triangles, %v deletion (M=%d)", sc.Kind, m),
		Header: []string{"|S|", "ARE WSD-L", "ARE WSD-H", "Time WSD-L", "Time WSD-H"},
	}}
	for _, size := range sizes {
		if size > len(full) {
			size = len(full)
		}
		prefix := full[:size]
		var point ScalabilityPoint
		point.Events = size
		for _, algo := range []Algo{AlgoWSDL, AlgoWSDH} {
			cfg := RunConfig{
				Stream: prefix, Pattern: pattern.Triangle, Algo: algo,
				M: m, Trials: prof.Trials, Seed: prof.Seed, Checkpoints: prof.Checkpoints,
			}
			if algo == AlgoWSDL {
				cfg.Policy = policy
			}
			r, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			if algo == AlgoWSDL {
				point.AREWSDL, point.SecWSDL = r.ARE.Mean, r.Seconds.Mean
			} else {
				point.AREWSDH, point.SecWSDH = r.ARE.Mean, r.Seconds.Mean
			}
		}
		res.Points = append(res.Points, point)
		res.Table.AddRow(fmt.Sprintf("%d", size),
			pct(point.AREWSDL), pct(point.AREWSDH), secs(point.SecWSDL), secs(point.SecWSDH))
		if size == len(full) {
			break
		}
	}
	return res, nil
}

// Fig1 reproduces Fig. 1 (massive deletion scalability).
func Fig1(prof Profile) (*ScalabilityResult, error) {
	return Scalability("Fig 1", MassiveDefault(), prof)
}

// Fig3 reproduces Fig. 3 (light deletion scalability).
func Fig3(prof Profile) (*ScalabilityResult, error) {
	return Scalability("Fig 3", LightDefault(), prof)
}

// OrderingResult is the grid behind Fig. 2(a) / Fig. 4(a): ARE per stream
// ordering and algorithm.
type OrderingResult struct {
	Table *Table
	ARE   map[string]map[Algo]float64 // ordering -> algo -> ARE
}

// Ordering reproduces Fig. 2(a) / Fig. 4(a): counting triangles on the
// citation test graph under natural, uniform-at-random and random-BFS stream
// orderings.
func Ordering(id string, sc Scenario, prof Profile) (*OrderingResult, error) {
	ds := mustDataset("cit-PT")
	base := ds.Edges(prof.Seed)
	orderings := []struct {
		name  string
		edges []graph.Edge
	}{
		{"Natural", base},
		{"UAR", stream.UAROrder(base, rand.New(rand.NewSource(prof.Seed+11)))},
		{"RBFS", stream.RBFSOrder(base, rand.New(rand.NewSource(prof.Seed+22)))},
	}
	policy, err := PolicyForTest(ds, pattern.Triangle, sc, prof)
	if err != nil {
		return nil, err
	}
	algos := FullyDynamicAlgos()
	res := &OrderingResult{
		Table: &Table{ID: id, Title: fmt.Sprintf("stream ordering on cit-PT, %v deletion (ARE, triangles)", sc.Kind),
			Header: append([]string{"Ordering"}, algoNames(algos)...)},
		ARE: make(map[string]map[Algo]float64),
	}
	for _, ord := range orderings {
		st := sc.Build(ord.edges, rand.New(rand.NewSource(prof.Seed+33)))
		perAlgo := make(map[Algo]float64, len(algos))
		row := []string{ord.name}
		for _, algo := range algos {
			cfg := RunConfig{
				Stream: st, Pattern: pattern.Triangle, Algo: algo,
				M: ds.DefaultM, Trials: prof.Trials, Seed: prof.Seed, Checkpoints: prof.Checkpoints,
			}
			if algo == AlgoWSDL {
				cfg.Policy = policy
			}
			r, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			perAlgo[algo] = r.ARE.Mean
			row = append(row, pct(r.ARE.Mean))
		}
		res.ARE[ord.name] = perAlgo
		res.Table.AddRow(row...)
	}
	return res, nil
}

// Fig2a reproduces Fig. 2(a).
func Fig2a(prof Profile) (*OrderingResult, error) { return Ordering("Fig 2a", MassiveDefault(), prof) }

// Fig4a reproduces Fig. 4(a).
func Fig4a(prof Profile) (*OrderingResult, error) { return Ordering("Fig 4a", LightDefault(), prof) }

// SweepResult is a generic one-parameter sweep grid: x value -> algo -> ARE.
type SweepResult struct {
	Table *Table
	ARE   map[string]map[Algo]float64
	Xs    []string
}

// ReservoirSweep reproduces Fig. 2(b) / Fig. 4(b): ARE of counting triangles
// on the citation test graph as M grows from 1% to 5% of |E|.
func ReservoirSweep(id string, sc Scenario, prof Profile) (*SweepResult, error) {
	ds := mustDataset("cit-PT")
	st := StreamFor(ds, sc, prof.Seed)
	edges := ds.Edges(prof.Seed)
	policy, err := PolicyForTest(ds, pattern.Triangle, sc, prof)
	if err != nil {
		return nil, err
	}
	algos := FullyDynamicAlgos()
	res := &SweepResult{
		Table: &Table{ID: id, Title: fmt.Sprintf("reservoir size sweep on cit-PT, %v deletion (ARE, triangles)", sc.Kind),
			Header: append([]string{"M (%|E|)"}, algoNames(algos)...)},
		ARE: make(map[string]map[Algo]float64),
	}
	for pctM := 1; pctM <= 5; pctM++ {
		m := len(edges) * pctM / 100
		if m < pattern.FourClique.Size() {
			m = pattern.FourClique.Size()
		}
		label := fmt.Sprintf("%d%%", pctM)
		perAlgo := make(map[Algo]float64, len(algos))
		row := []string{label}
		for _, algo := range algos {
			cfg := RunConfig{
				Stream: st, Pattern: pattern.Triangle, Algo: algo,
				M: m, Trials: prof.Trials, Seed: prof.Seed, Checkpoints: prof.Checkpoints,
			}
			if algo == AlgoWSDL {
				cfg.Policy = policy
			}
			r, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			perAlgo[algo] = r.ARE.Mean
			row = append(row, pct(r.ARE.Mean))
		}
		res.ARE[label] = perAlgo
		res.Xs = append(res.Xs, label)
		res.Table.AddRow(row...)
	}
	return res, nil
}

// Fig2b reproduces Fig. 2(b).
func Fig2b(prof Profile) (*SweepResult, error) {
	return ReservoirSweep("Fig 2b", MassiveDefault(), prof)
}

// Fig4b reproduces Fig. 4(b).
func Fig4b(prof Profile) (*SweepResult, error) {
	return ReservoirSweep("Fig 4b", LightDefault(), prof)
}

// TrainingSizePoint is one x-position of Fig. 2(c) / Fig. 4(c).
type TrainingSizePoint struct {
	TrainVertices int
	TrainSeconds  float64
	ARE           float64
}

// TrainingSizeResult is the series behind Fig. 2(c) / Fig. 4(c).
type TrainingSizeResult struct {
	Table  *Table
	Points []TrainingSizePoint
}

// TrainingSize reproduces Fig. 2(c) / Fig. 4(c): training cost and resulting
// test ARE as the Forest Fire training graph grows. The paper's takeaway —
// training time grows sharply with training size while accuracy improves only
// slightly — motivates training on graphs ~10-20% the size of the test graph.
func TrainingSize(id string, sc Scenario, prof Profile) (*TrainingSizeResult, error) {
	test := mustDataset("synthetic")
	st := StreamFor(test, sc, prof.Seed)
	res := &TrainingSizeResult{Table: &Table{
		ID:     id,
		Title:  fmt.Sprintf("training graph size sweep, %v deletion (triangles on synthetic)", sc.Kind),
		Header: []string{"train n", "train time", "ARE"},
	}}
	for _, n := range []int{500, 1000, 2000, 4000} {
		edges := gen.ForestFire(n, 0.45, rand.New(rand.NewSource(prof.Seed+int64(n))))
		streams := make([]stream.Stream, prof.TrainStreams)
		for i := range streams {
			streams[i] = sc.Build(edges, rand.New(rand.NewSource(prof.Seed+int64(i*1000+n))))
		}
		m := len(edges) / 25
		if m < 100 {
			m = 100
		}
		policy, stats, err := rl.Train(rl.TrainConfig{
			Pattern:    pattern.Triangle,
			M:          m,
			Streams:    streams,
			Iterations: prof.TrainIterations,
			Seed:       prof.Seed,
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
		p := TrainingSizePoint{TrainVertices: n, TrainSeconds: stats.Elapsed.Seconds(), ARE: r.ARE.Mean}
		res.Points = append(res.Points, p)
		res.Table.AddRow(fmt.Sprintf("%d", n), secs(p.TrainSeconds), pct(p.ARE))
	}
	return res, nil
}

// Fig2c reproduces Fig. 2(c).
func Fig2c(prof Profile) (*TrainingSizeResult, error) {
	return TrainingSize("Fig 2c", MassiveDefault(), prof)
}

// Fig4c reproduces Fig. 4(c).
func Fig4c(prof Profile) (*TrainingSizeResult, error) {
	return TrainingSize("Fig 4c", LightDefault(), prof)
}

// WeightRelResult is the data behind Fig. 2(d) / Fig. 4(d): the relationship
// between an edge's mean learned weight and the number of triangles it
// participates in by stream end.
type WeightRelResult struct {
	Table *Table
	// Buckets are weight-quantile buckets with the mean triangle count of
	// their edges.
	Buckets []WeightBucket
	// Pearson is the correlation between per-edge mean weight and triangle
	// count.
	Pearson float64
}

// WeightBucket summarizes one weight-quantile bucket.
type WeightBucket struct {
	MeanWeight    float64
	MeanTriangles float64
	Edges         int
}

// WeightRelationship reproduces Fig. 2(d) / Fig. 4(d): run WSD-L repeatedly,
// record the weight assigned to every arriving edge, average per edge, and
// relate it to the edge's final triangle participation.
func WeightRelationship(id string, sc Scenario, prof Profile) (*WeightRelResult, error) {
	ds := mustDataset("cit-PT")
	st := StreamFor(ds, sc, prof.Seed)
	policy, err := PolicyForTest(ds, pattern.Triangle, sc, prof)
	if err != nil {
		return nil, err
	}

	sum := make(map[graph.Edge]float64)
	cnt := make(map[graph.Edge]int)
	for trial := 0; trial < prof.Trials; trial++ {
		rng := rand.New(rand.NewSource(prof.Seed + int64(trial)*104729))
		var cur graph.Edge
		base := policy.Func()
		weightFn := func(s weights.State) float64 {
			w := base(s)
			sum[cur] += w
			cnt[cur]++
			return w
		}
		c, err := core.New(core.Config{M: ds.DefaultM, Pattern: pattern.Triangle, Weight: weightFn, Rng: rng})
		if err != nil {
			return nil, err
		}
		for _, ev := range st {
			if ev.Op == stream.Insert {
				cur = ev.Edge
			}
			c.Process(ev)
		}
	}

	// Triangle participation in the final graph.
	perEdge := exact.PerEdgeTriangles(st.FinalGraph())
	var pts []wtPoint
	for e, s := range sum {
		tri, ok := perEdge[e]
		if !ok {
			continue // edge deleted before stream end
		}
		pts = append(pts, wtPoint{w: s / float64(cnt[e]), tri: float64(tri)})
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("experiment: weight relationship produced no samples")
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].w < pts[j].w })

	res := &WeightRelResult{Table: &Table{
		ID:     id,
		Title:  fmt.Sprintf("edge weight vs triangle participation on cit-PT, %v deletion", sc.Kind),
		Header: []string{"weight bucket", "mean weight", "mean triangles", "edges"},
	}}
	const nBuckets = 5
	for b := 0; b < nBuckets; b++ {
		lo, hi := b*len(pts)/nBuckets, (b+1)*len(pts)/nBuckets
		if lo >= hi {
			continue
		}
		var bw, bt float64
		for _, p := range pts[lo:hi] {
			bw += p.w
			bt += p.tri
		}
		n := float64(hi - lo)
		bucket := WeightBucket{MeanWeight: bw / n, MeanTriangles: bt / n, Edges: hi - lo}
		res.Buckets = append(res.Buckets, bucket)
		res.Table.AddRow(fmt.Sprintf("Q%d", b+1),
			fmt.Sprintf("%.3f", bucket.MeanWeight),
			fmt.Sprintf("%.2f", bucket.MeanTriangles),
			fmt.Sprintf("%d", bucket.Edges))
	}
	res.Pearson = pearson(pts)
	res.Table.Notes = append(res.Table.Notes, fmt.Sprintf("Pearson correlation: %.3f", res.Pearson))
	return res, nil
}

type wtPoint struct{ w, tri float64 }

func pearson(pts []wtPoint) float64 {
	n := float64(len(pts))
	var mw, mt float64
	for _, p := range pts {
		mw += p.w
		mt += p.tri
	}
	mw /= n
	mt /= n
	var cov, vw, vt float64
	for _, p := range pts {
		cov += (p.w - mw) * (p.tri - mt)
		vw += (p.w - mw) * (p.w - mw)
		vt += (p.tri - mt) * (p.tri - mt)
	}
	if vw == 0 || vt == 0 {
		return 0
	}
	return cov / math.Sqrt(vw*vt)
}

// Fig2d reproduces Fig. 2(d).
func Fig2d(prof Profile) (*WeightRelResult, error) {
	return WeightRelationship("Fig 2d", MassiveDefault(), prof)
}

// Fig4d reproduces Fig. 4(d).
func Fig4d(prof Profile) (*WeightRelResult, error) {
	return WeightRelationship("Fig 4d", LightDefault(), prof)
}

// DeletionIntensityResult is the grid behind Fig. 5: ARE as beta_m / beta_l
// grow.
type DeletionIntensityResult struct {
	Massive *SweepResult
	Light   *SweepResult
}

// GetTable returns the massive sweep's table with the light sweep's rows
// appended under a section label.
func (r *DeletionIntensityResult) GetTable() *Table {
	combined := *r.Massive.Table
	combined.Rows = append(slices.Clip(combined.Rows), []string{"-- light --"})
	combined.Rows = append(combined.Rows, r.Light.Table.Rows...)
	return &combined
}

// Fig5 reproduces Fig. 5: counting triangles on cit-PT while varying the
// deletion intensity parameters beta_m (massive) and beta_l (light).
func Fig5(prof Profile) (*DeletionIntensityResult, error) {
	ds := mustDataset("cit-PT")
	algos := FullyDynamicAlgos()
	out := &DeletionIntensityResult{}
	for _, part := range []struct {
		kind ScenarioKind
		dst  **SweepResult
	}{
		{Massive, &out.Massive},
		{Light, &out.Light},
	} {
		res := &SweepResult{
			Table: &Table{ID: "Fig 5", Title: fmt.Sprintf("deletion intensity sweep on cit-PT, %v (ARE, triangles)", part.kind),
				Header: append([]string{"beta"}, algoNames(algos)...)},
			ARE: make(map[string]map[Algo]float64),
		}
		for _, beta := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
			var sc Scenario
			if part.kind == Massive {
				sc = Scenario{Kind: Massive, BetaM: beta}
			} else {
				sc = Scenario{Kind: Light, BetaL: beta}
			}
			st := StreamFor(ds, sc, prof.Seed)
			policy, err := PolicyForTest(ds, pattern.Triangle, sc, prof)
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("%.1f", beta)
			perAlgo := make(map[Algo]float64, len(algos))
			row := []string{label}
			for _, algo := range algos {
				cfg := RunConfig{
					Stream: st, Pattern: pattern.Triangle, Algo: algo,
					M: ds.DefaultM, Trials: prof.Trials, Seed: prof.Seed, Checkpoints: prof.Checkpoints,
				}
				if algo == AlgoWSDL {
					cfg.Policy = policy
				}
				r, err := Run(cfg)
				if err != nil {
					return nil, err
				}
				perAlgo[algo] = r.ARE.Mean
				row = append(row, pct(r.ARE.Mean))
			}
			res.ARE[label] = perAlgo
			res.Xs = append(res.Xs, label)
			res.Table.AddRow(row...)
		}
		*part.dst = res
	}
	return out, nil
}
