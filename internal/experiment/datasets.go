// Package experiment is the reproduction harness: it defines the dataset
// registry standing in for the paper's evaluation graphs, the deletion
// scenarios, the trial runner computing ARE/MARE/time per algorithm, the one
// grid runner that crosses a table's rows (streams) with its cells
// (algorithms and their knobs), the policy training cache backing WSD-L, and
// one generator function per table and figure of the paper, listed once in
// the experiment Registry.
package experiment

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stream"
)

// Dataset is a named edge-sequence source. Test datasets reference the
// training dataset of the same category (Table I of the paper).
type Dataset struct {
	// Name matches the paper's abbreviation (cit-PT, com-YT, ...).
	Name string
	// Category is the graph family: citation, community, social, web or
	// synthetic.
	Category string
	// Train is the name of the category's training dataset.
	Train string
	// DefaultM is the reservoir budget used for this dataset unless a run
	// overrides it (roughly 4% of |E|, cf. Fig. 2b's 1-5% sweep).
	DefaultM int
	build    func(rng *rand.Rand) []graph.Edge
}

// Edges generates (or returns the cached) natural-order edge sequence.
// Generation is deterministic per (dataset, seed) and cached process-wide:
// the paper's runs all share one underlying graph per dataset, with
// randomness living in the samplers.
func (d Dataset) Edges(seed int64) []graph.Edge {
	key := fmt.Sprintf("%s/%d", d.Name, seed)
	if v, ok := edgeCache.Load(key); ok {
		return v.([]graph.Edge)
	}
	edges := d.build(rand.New(rand.NewSource(seed)))
	actual, _ := edgeCache.LoadOrStore(key, edges)
	return actual.([]graph.Edge)
}

var edgeCache sync.Map

// The dataset registry scales the paper's graphs down ~300x (see DESIGN.md,
// Substitutions): each category keeps the structural property that drives
// sampling behavior while the full suite stays laptop-sized.
var datasetRegistry = map[string]Dataset{
	// Citation graphs: Forest Fire reproduces citation networks'
	// densification, heavy-tailed in-degrees and community bursts.
	"cit-HE": {
		Name: "cit-HE", Category: "citation", Train: "cit-HE", DefaultM: 900,
		build: func(rng *rand.Rand) []graph.Edge { return gen.ForestFire(2500, 0.52, rng) },
	},
	"cit-PT": {
		Name: "cit-PT", Category: "citation", Train: "cit-HE", DefaultM: 3800,
		build: func(rng *rand.Rand) []graph.Edge { return gen.ForestFire(10000, 0.52, rng) },
	},
	// Community networks: planted partition concentrates triangles inside
	// communities like DBLP/YouTube.
	"com-DB": {
		Name: "com-DB", Category: "community", Train: "com-DB", DefaultM: 1100,
		build: func(rng *rand.Rand) []graph.Edge {
			return gen.PlantedPartition(40, 50, 0.4, 0.001, rng)
		},
	},
	"com-YT": {
		Name: "com-YT", Category: "community", Train: "com-DB", DefaultM: 4300,
		build: func(rng *rand.Rand) []graph.Edge {
			return gen.PlantedPartition(80, 50, 0.4, 0.0005, rng)
		},
	},
	// Social networks: Holme-Kim preferential attachment with triad
	// formation produces the hub-dominated, high-clustering structure
	// (celebrities) motivating weighted sampling.
	"soc-TX": {
		Name: "soc-TX", Category: "social", Train: "soc-TX", DefaultM: 1800,
		build: func(rng *rand.Rand) []graph.Edge { return gen.HolmeKim(3000, 6, 0.8, rng) },
	},
	"soc-TW": {
		Name: "soc-TW", Category: "social", Train: "soc-TX", DefaultM: 7200,
		build: func(rng *rand.Rand) []graph.Edge { return gen.HolmeKim(12000, 6, 0.8, rng) },
	},
	// Web graphs: the copying model yields the dense cores/cliques of web
	// link structure.
	"web-SF": {
		Name: "web-SF", Category: "web", Train: "web-SF", DefaultM: 1500,
		build: func(rng *rand.Rand) []graph.Edge { return gen.CopyingModel(3000, 6, 0.8, rng) },
	},
	"web-GL": {
		Name: "web-GL", Category: "web", Train: "web-SF", DefaultM: 4900,
		build: func(rng *rand.Rand) []graph.Edge { return gen.CopyingModel(10000, 6, 0.8, rng) },
	},
	// Synthetic: Forest Fire G(n, p), the paper's own synthetic family.
	"syn-train": {
		Name: "syn-train", Category: "synthetic", Train: "syn-train", DefaultM: 700,
		build: func(rng *rand.Rand) []graph.Edge { return gen.ForestFire(2500, 0.50, rng) },
	},
	"synthetic": {
		Name: "synthetic", Category: "synthetic", Train: "syn-train", DefaultM: 2200,
		build: func(rng *rand.Rand) []graph.Edge { return gen.ForestFire(8000, 0.50, rng) },
	},
}

// DatasetByName looks up a dataset.
func DatasetByName(name string) (Dataset, error) {
	d, ok := datasetRegistry[name]
	if !ok {
		return Dataset{}, fmt.Errorf("experiment: unknown dataset %q", name)
	}
	return d, nil
}

// TestDatasets returns the five evaluation datasets in the paper's table
// order.
func TestDatasets() []Dataset {
	return datasetsByName("cit-PT", "com-YT", "soc-TW", "web-GL", "synthetic")
}

// TestDatasetsSmall returns the evaluation datasets used for the 4-clique
// tables (the paper's Tables VII and X omit soc-TW).
func TestDatasetsSmall() []Dataset {
	return datasetsByName("cit-PT", "com-YT", "web-GL", "synthetic")
}

// TrainDatasets returns the four real-category training datasets (Tables IV
// and XI).
func TrainDatasets() []Dataset {
	return datasetsByName("cit-HE", "com-DB", "soc-TX", "web-SF")
}

func datasetsByName(names ...string) []Dataset {
	out := make([]Dataset, len(names))
	for i, n := range names {
		d, err := DatasetByName(n)
		if err != nil {
			panic(err)
		}
		out[i] = d
	}
	return out
}

// ScenarioKind distinguishes the three stream regimes of the evaluation.
type ScenarioKind int

const (
	// InsertOnly has no deletions (Table VI).
	InsertOnly ScenarioKind = iota
	// Massive follows each insertion with probability alpha by a mass
	// deletion deleting each live edge with probability betaM.
	Massive
	// Light deletes each edge with probability betaL at a random later
	// position.
	Light
)

// String implements fmt.Stringer.
func (k ScenarioKind) String() string {
	switch k {
	case InsertOnly:
		return "insert-only"
	case Massive:
		return "massive"
	case Light:
		return "light"
	}
	return fmt.Sprintf("ScenarioKind(%d)", int(k))
}

// Scenario is a deletion regime with its parameters.
type Scenario struct {
	Kind  ScenarioKind
	Alpha float64 // massive: probability of a mass deletion per insertion; 0 = auto (about 5 events per stream)
	BetaM float64 // massive: per-edge deletion probability
	BetaL float64 // light: per-edge deletion probability
}

// MassiveDefault mirrors the paper's default massive scenario: betaM = 0.8
// and alpha scaled so a handful of mass deletions occur per stream (the paper
// uses alpha = 1/3,000,000 on multi-million-edge streams).
func MassiveDefault() Scenario { return Scenario{Kind: Massive, BetaM: 0.8} }

// LightDefault mirrors the paper's default light scenario, betaL = 0.2.
func LightDefault() Scenario { return Scenario{Kind: Light, BetaL: 0.2} }

// InsertOnlyScenario is the no-deletion special case.
func InsertOnlyScenario() Scenario { return Scenario{Kind: InsertOnly} }

// Build materializes the scenario over a base edge sequence.
func (s Scenario) Build(edges []graph.Edge, rng *rand.Rand) stream.Stream {
	switch s.Kind {
	case InsertOnly:
		return stream.InsertOnly(edges)
	case Massive:
		if s.Alpha == 0 {
			// Auto mode: exactly three mass deletions at random positions in
			// the first 60% of insertions — the expected event count of the
			// paper's alpha on its stream sizes, with the rebuild window that
			// exists implicitly there made explicit (see
			// stream.MassiveDeletionEvents and EXPERIMENTS.md).
			return stream.MassiveDeletionEvents(edges, 3, s.BetaM, 0.4, rng)
		}
		return stream.MassiveDeletionWindow(edges, s.Alpha, s.BetaM, 0.4, rng)
	case Light:
		return stream.LightDeletion(edges, s.BetaL, rng)
	}
	panic("experiment: unknown scenario kind")
}

// StreamFor builds the scenario stream for a dataset with deterministic
// seeds, cached process-wide.
func StreamFor(d Dataset, sc Scenario, seed int64) stream.Stream {
	key := fmt.Sprintf("%s/%v/%v/%v/%v/%d", d.Name, sc.Kind, sc.Alpha, sc.BetaM, sc.BetaL, seed)
	if v, ok := streamCache.Load(key); ok {
		return v.(stream.Stream)
	}
	edges := d.Edges(seed)
	st := sc.Build(edges, rand.New(rand.NewSource(seed+0x5C3A)))
	actual, _ := streamCache.LoadOrStore(key, st)
	return actual.(stream.Stream)
}

var streamCache sync.Map
