package experiment

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	*Table
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

// scalability reproduces Fig. 1 / Fig. 3: ARE and running time of WSD-L and
// WSD-H over increasing stream sizes with a fixed reservoir.
func scalability(id string, sc Scenario, prof Profile) (*ScalabilityResult, error) {
	full := scalabilityStream(sc, prof.Seed)
	const m = 800
	var rows []row
	for _, size := range []int{5000, 10000, 20000, 40000, 80000} {
		size = min(size, len(full))
		rows = append(rows, row{label: fmt.Sprintf("%d", size), stream: full[:size], pattern: pattern.Triangle, m: m,
			policy: learned(mustDataset("syn-train"), pattern.Triangle, sc, prof)})
		if size == len(full) {
			break
		}
	}
	runs, err := grid(prof, rows, algoCells(AlgoWSDL, AlgoWSDH))
	if err != nil {
		return nil, err
	}
	res := &ScalabilityResult{Table: &Table{
		ID:     id,
		Title:  fmt.Sprintf("scalability of counting triangles, %v deletion (M=%d)", sc.Kind, m),
		Header: []string{"|S|", "ARE WSD-L", "ARE WSD-H", "Time WSD-L", "Time WSD-H"},
	}}
	for i, r := range rows {
		l, h := runs[i][0], runs[i][1]
		point := ScalabilityPoint{Events: len(r.stream), AREWSDL: l.ARE.Mean, AREWSDH: h.ARE.Mean, SecWSDL: l.Seconds.Mean, SecWSDH: h.Seconds.Mean}
		res.Points = append(res.Points, point)
		res.AddRow(r.label, pct(point.AREWSDL), pct(point.AREWSDH), secs(point.SecWSDL), secs(point.SecWSDH))
	}
	return res, nil
}

// Fig1 reproduces Fig. 1 (massive deletion scalability).
func Fig1(prof Profile) (*ScalabilityResult, error) {
	return scalability("Fig 1", MassiveDefault(), prof)
}

// Fig3 reproduces Fig. 3 (light deletion scalability).
func Fig3(prof Profile) (*ScalabilityResult, error) {
	return scalability("Fig 3", LightDefault(), prof)
}

// SweepResult is the grid behind a one-parameter sweep (Figs. 2a, 2b, 4a, 4b
// and 5): the ARE of the six fully dynamic algorithms per x value.
type SweepResult struct {
	*Table
	ARE map[string]map[Algo]float64 // x -> algo -> ARE
	// Xs are the x values in row order: each row's label, behind its table
	// section when it has one.
	Xs []string
}

// sweep runs the six fully dynamic algorithms over rows, one table row of
// ARE per grid row under a header naming the x axis.
func sweep(id, title, x string, rows []row, prof Profile) (*SweepResult, error) {
	algos := FullyDynamicAlgos()
	runs, err := grid(prof, rows, algoCells(algos...))
	if err != nil {
		return nil, err
	}
	res := &SweepResult{
		Table: &Table{ID: id, Title: title, Header: append([]string{x}, algoNames(algos)...)},
		ARE:   make(map[string]map[Algo]float64, len(rows)),
	}
	for i, r := range rows {
		key := r.label
		if r.section != "" {
			if i == 0 || rows[i-1].section != r.section {
				res.AddSection(r.section)
			}
			key = r.section + " " + r.label
		}
		perAlgo := make(map[Algo]float64, len(algos))
		line := []string{r.label}
		for j, algo := range algos {
			perAlgo[algo] = runs[i][j].ARE.Mean
			line = append(line, pct(runs[i][j].ARE.Mean))
		}
		res.ARE[key] = perAlgo
		res.Xs = append(res.Xs, key)
		res.AddRow(line...)
	}
	return res, nil
}

// ordering reproduces Fig. 2(a) / Fig. 4(a): counting triangles on the
// citation test graph under natural, uniform-at-random and random-BFS stream
// orderings.
func ordering(id string, sc Scenario, prof Profile) (*SweepResult, error) {
	ds := mustDataset("cit-PT")
	base := ds.Edges(prof.Seed)
	var rows []row
	for _, ord := range []struct {
		name  string
		edges []graph.Edge
	}{
		{"Natural", base},
		{"UAR", stream.UAROrder(base, rand.New(rand.NewSource(prof.Seed+11)))},
		{"RBFS", stream.RBFSOrder(base, rand.New(rand.NewSource(prof.Seed+22)))},
	} {
		rows = append(rows, row{label: ord.name, stream: sc.Build(ord.edges, rand.New(rand.NewSource(prof.Seed+33))),
			pattern: pattern.Triangle, m: ds.DefaultM, policy: learned(ds, pattern.Triangle, sc, prof)})
	}
	return sweep(id, fmt.Sprintf("stream ordering on cit-PT, %v deletion (ARE, triangles)", sc.Kind), "Ordering", rows, prof)
}

// Fig2a reproduces Fig. 2(a).
func Fig2a(prof Profile) (*SweepResult, error) { return ordering("Fig 2a", MassiveDefault(), prof) }

// Fig4a reproduces Fig. 4(a).
func Fig4a(prof Profile) (*SweepResult, error) { return ordering("Fig 4a", LightDefault(), prof) }

// reservoirSweep reproduces Fig. 2(b) / Fig. 4(b): ARE of counting triangles
// on the citation test graph as M grows from 1% to 5% of |E|.
func reservoirSweep(id string, sc Scenario, prof Profile) (*SweepResult, error) {
	ds := mustDataset("cit-PT")
	st := StreamFor(ds, sc, prof.Seed)
	edges := ds.Edges(prof.Seed)
	var rows []row
	for pctM := 1; pctM <= 5; pctM++ {
		rows = append(rows, row{label: fmt.Sprintf("%d%%", pctM), stream: st, pattern: pattern.Triangle,
			m: max(len(edges)*pctM/100, pattern.FourClique.Size()), policy: learned(ds, pattern.Triangle, sc, prof)})
	}
	return sweep(id, fmt.Sprintf("reservoir size sweep on cit-PT, %v deletion (ARE, triangles)", sc.Kind), "M (%|E|)", rows, prof)
}

// Fig2b reproduces Fig. 2(b).
func Fig2b(prof Profile) (*SweepResult, error) {
	return reservoirSweep("Fig 2b", MassiveDefault(), prof)
}

// Fig4b reproduces Fig. 4(b).
func Fig4b(prof Profile) (*SweepResult, error) {
	return reservoirSweep("Fig 4b", LightDefault(), prof)
}

// TrainingSizePoint is one x-position of Fig. 2(c) / Fig. 4(c).
type TrainingSizePoint struct {
	TrainVertices int
	TrainSeconds  float64
	ARE           float64
}

// TrainingSizeResult is the series behind Fig. 2(c) / Fig. 4(c).
type TrainingSizeResult struct {
	*Table
	Points []TrainingSizePoint
}

// trainingSize reproduces Fig. 2(c) / Fig. 4(c): training cost and resulting
// test ARE as the Forest Fire training graph grows. The paper's takeaway —
// training time grows sharply with training size while accuracy improves only
// slightly — motivates training on graphs ~10-20% the size of the test graph.
func trainingSize(id string, sc Scenario, prof Profile) (*TrainingSizeResult, error) {
	test := mustDataset("synthetic")
	sizes := []int{500, 1000, 2000, 4000}
	cells := make([]cell, len(sizes))
	trainSecs := make([]float64, len(sizes))
	for i, n := range sizes {
		edges := gen.ForestFire(n, 0.45, rand.New(rand.NewSource(prof.Seed+int64(n))))
		policy, stats, err := trainOn(edges, sc, prof.Seed+int64(n), 1000,
			rl.TrainConfig{Pattern: pattern.Triangle, M: max(len(edges)/25, 100)}, prof)
		if err != nil {
			return nil, err
		}
		cells[i], trainSecs[i] = cell{algo: AlgoWSDL, policy: policy}, stats.Elapsed.Seconds()
	}
	runs, err := grid(prof, []row{{label: test.Name, stream: StreamFor(test, sc, prof.Seed), pattern: pattern.Triangle, m: test.DefaultM}}, cells)
	if err != nil {
		return nil, err
	}
	res := &TrainingSizeResult{Table: &Table{
		ID:     id,
		Title:  fmt.Sprintf("training graph size sweep, %v deletion (triangles on synthetic)", sc.Kind),
		Header: []string{"train n", "train time", "ARE"},
	}}
	for i, n := range sizes {
		p := TrainingSizePoint{TrainVertices: n, TrainSeconds: trainSecs[i], ARE: runs[0][i].ARE.Mean}
		res.Points = append(res.Points, p)
		res.AddRow(fmt.Sprintf("%d", n), secs(p.TrainSeconds), pct(p.ARE))
	}
	return res, nil
}

// Fig2c reproduces Fig. 2(c).
func Fig2c(prof Profile) (*TrainingSizeResult, error) {
	return trainingSize("Fig 2c", MassiveDefault(), prof)
}

// Fig4c reproduces Fig. 4(c).
func Fig4c(prof Profile) (*TrainingSizeResult, error) {
	return trainingSize("Fig 4c", LightDefault(), prof)
}

// WeightRelResult is the data behind Fig. 2(d) / Fig. 4(d): the relationship
// between an edge's mean learned weight and the number of triangles it
// participates in by stream end.
type WeightRelResult struct {
	*Table
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

// weightRelationship reproduces Fig. 2(d) / Fig. 4(d): run WSD-L repeatedly,
// record the weight assigned to every arriving edge, average per edge, and
// relate it to the edge's final triangle participation.
func weightRelationship(id string, sc Scenario, prof Profile) (*WeightRelResult, error) {
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
		pts = append(pts, wtPoint{e: e, w: s / float64(cnt[e]), tri: float64(tri)})
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("experiment: weight relationship produced no samples")
	}
	// Most edges tie on weight, so ties break by edge: the buckets and the
	// Pearson sum then see one order, not the map's.
	slices.SortFunc(pts, func(a, b wtPoint) int {
		return cmp.Or(cmp.Compare(a.w, b.w), cmp.Compare(a.e.U, b.e.U), cmp.Compare(a.e.V, b.e.V))
	})

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
		res.AddRow(fmt.Sprintf("Q%d", b+1),
			fmt.Sprintf("%.3f", bucket.MeanWeight),
			fmt.Sprintf("%.2f", bucket.MeanTriangles),
			fmt.Sprintf("%d", bucket.Edges))
	}
	res.Pearson = pearson(pts)
	res.Notes = append(res.Notes, fmt.Sprintf("Pearson correlation: %.3f", res.Pearson))
	return res, nil
}

type wtPoint struct {
	e      graph.Edge
	w, tri float64
}

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
	return weightRelationship("Fig 2d", MassiveDefault(), prof)
}

// Fig4d reproduces Fig. 4(d).
func Fig4d(prof Profile) (*WeightRelResult, error) {
	return weightRelationship("Fig 4d", LightDefault(), prof)
}

// Fig5 reproduces Fig. 5: counting triangles on cit-PT while varying the
// deletion intensity parameters beta_m (massive) and beta_l (light); the
// light rows follow the massive ones under their own section.
func Fig5(prof Profile) (*SweepResult, error) {
	ds := mustDataset("cit-PT")
	var rows []row
	for _, kind := range []ScenarioKind{Massive, Light} {
		for _, beta := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
			sc, section := Scenario{Kind: Massive, BetaM: beta}, ""
			if kind == Light {
				sc, section = Scenario{Kind: Light, BetaL: beta}, "light"
			}
			rows = append(rows, row{label: fmt.Sprintf("%.1f", beta), section: section, stream: StreamFor(ds, sc, prof.Seed),
				pattern: pattern.Triangle, m: ds.DefaultM, policy: learned(ds, pattern.Triangle, sc, prof)})
		}
	}
	return sweep("Fig 5", "deletion intensity sweep on cit-PT, massive (ARE, triangles)", "beta", rows, prof)
}
