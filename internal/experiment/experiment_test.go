package experiment

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/pattern"
	"repro/internal/rl"
	"repro/internal/stream"
)

// tinyProfile keeps harness tests fast.
func tinyProfile() Profile {
	return Profile{Trials: 2, Checkpoints: 10, TrainIterations: 10, TrainStreams: 1, Seed: 1}
}

// tinyDataset returns a small registered dataset for harness tests.
func tinyDataset(t *testing.T) Dataset {
	t.Helper()
	d, err := DatasetByName("com-DB")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDatasetRegistry(t *testing.T) {
	if _, err := DatasetByName("nope"); err == nil {
		t.Fatal("unknown dataset should error")
	}
	names := map[string]bool{}
	for _, d := range append(TestDatasets(), TrainDatasets()...) {
		names[d.Name] = true
		if _, err := DatasetByName(d.Train); err != nil {
			t.Errorf("dataset %s references unknown training set %s", d.Name, d.Train)
		}
		if d.DefaultM <= 0 {
			t.Errorf("dataset %s has no default M", d.Name)
		}
	}
	if len(TestDatasets()) != 5 {
		t.Fatalf("expected 5 test datasets")
	}
	if len(TestDatasetsSmall()) != 4 {
		t.Fatalf("expected 4 small test datasets")
	}
}

func TestDatasetEdgesCachedAndDeterministic(t *testing.T) {
	d := tinyDataset(t)
	a := d.Edges(1)
	b := d.Edges(1)
	if &a[0] != &b[0] {
		t.Fatal("edge cache miss for identical key")
	}
	c := d.Edges(2)
	if len(c) == 0 {
		t.Fatal("different seed produced no edges")
	}
}

func TestScenarioBuilds(t *testing.T) {
	d := tinyDataset(t)
	edges := d.Edges(1)
	for _, sc := range []Scenario{InsertOnlyScenario(), MassiveDefault(), LightDefault()} {
		s := sc.Build(edges, rand.New(rand.NewSource(1)))
		if idx := s.Validate(); idx != -1 {
			t.Errorf("%v: infeasible stream at %d", sc.Kind, idx)
		}
		ins, del := s.Counts()
		if ins != len(edges) {
			t.Errorf("%v: insertions %d, want %d", sc.Kind, ins, len(edges))
		}
		switch sc.Kind {
		case InsertOnly:
			if del != 0 {
				t.Errorf("insert-only has %d deletions", del)
			}
		default:
			if del == 0 {
				t.Errorf("%v: no deletions generated", sc.Kind)
			}
		}
	}
}

func TestAlgoStrings(t *testing.T) {
	want := []string{"WSD-L", "WSD-H", "GPS-A", "Triest", "ThinkD", "WRS"}
	for i, a := range FullyDynamicAlgos() {
		if a.String() != want[i] {
			t.Fatalf("algo %d = %s, want %s", i, a, want[i])
		}
	}
}

func TestNewCounterAllAlgos(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, a := range append(FullyDynamicAlgos(), AlgoGPS) {
		cfg := RunConfig{Pattern: pattern.Triangle, Algo: a, M: 100}
		if a == AlgoWSDL {
			cfg.Policy = &rl.Policy{W: make([]float64, 6)}
		}
		c, err := NewCounter(cfg, rng)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if c.Name() == "" {
			t.Fatalf("%v: empty name", a)
		}
	}
	// WSD-L without a policy must fail loudly.
	if _, err := NewCounter(RunConfig{Pattern: pattern.Triangle, Algo: AlgoWSDL, M: 100}, rng); err == nil {
		t.Fatal("WSD-L without policy should error")
	}
	if _, err := NewCounter(RunConfig{Pattern: pattern.Triangle, Algo: AlgoWSDH}, rng); err == nil {
		t.Fatal("M=0 should error")
	}
}

func TestRunProducesStatistics(t *testing.T) {
	d := tinyDataset(t)
	st := StreamFor(d, LightDefault(), 1)
	res, err := Run(RunConfig{
		Stream: st, Pattern: pattern.Triangle, Algo: AlgoWSDH,
		M: d.DefaultM, Trials: 3, Seed: 1, Checkpoints: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truth <= 0 {
		t.Fatalf("truth = %v", res.Truth)
	}
	if res.ARE.N != 3 || res.MARE.N != 3 || res.Seconds.N != 3 {
		t.Fatalf("summaries incomplete: %+v", res)
	}
	if res.ARE.Mean < 0 || math.IsNaN(res.ARE.Mean) {
		t.Fatalf("ARE = %v", res.ARE.Mean)
	}
	if res.Events != len(st) {
		t.Fatalf("events = %d, want %d", res.Events, len(st))
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	d := tinyDataset(t)
	st := StreamFor(d, LightDefault(), 1)
	cfg := RunConfig{Stream: st, Pattern: pattern.Wedge, Algo: AlgoThinkD,
		M: d.DefaultM, Trials: 2, Seed: 7, Checkpoints: 5}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.ARE.Mean != b.ARE.Mean || a.MARE.Mean != b.MARE.Mean {
		t.Fatalf("same seed produced different results: %v vs %v", a.ARE, b.ARE)
	}
}

func TestRunEmptyStream(t *testing.T) {
	if _, err := Run(RunConfig{Pattern: pattern.Wedge, Algo: AlgoWSDH, M: 10}); err == nil {
		t.Fatal("empty stream should error")
	}
}

func TestTrainPolicyCached(t *testing.T) {
	d := tinyDataset(t)
	prof := tinyProfile()
	p1, stats1, err := TrainPolicy(d, pattern.Wedge, LightDefault(), 0, prof)
	if err != nil {
		t.Fatal(err)
	}
	p2, stats2, err := TrainPolicy(d, pattern.Wedge, LightDefault(), 0, prof)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("policy cache returned different pointers for identical keys")
	}
	if stats1.Updates != stats2.Updates {
		t.Fatal("cached stats diverge")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "T", Title: "demo", Header: []string{"a", "b"}}
	tbl.AddSection("sec")
	tbl.AddRow("1", "2")
	tbl.Notes = append(tbl.Notes, "hello")
	out := tbl.String()
	for _, want := range []string{"T: demo", "a", "sec", "hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFormattingHelpers(t *testing.T) {
	if pct(0.5) != "50.0%" || pct(0.05) != "5.00%" || pct(0.005) != "0.500%" {
		t.Fatalf("pct formatting: %s %s %s", pct(0.5), pct(0.05), pct(0.005))
	}
	if secs(12) != "12.0s" || secs(0.5) != "0.50s" || secs(0.01) != "10ms" {
		t.Fatalf("secs formatting: %s %s %s", secs(12), secs(0.5), secs(0.01))
	}
}

// TestAccuracyTableSmoke runs a one-dataset accuracy grid end to end with a
// tiny profile: the full pipeline including WSD-L policy training.
func TestAccuracyTableSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness integration test")
	}
	prof := tinyProfile()
	res, err := accuracyTable("T-test", "smoke", pattern.Triangle, LightDefault(),
		datasetsByName("com-DB"), prof)
	if err != nil {
		t.Fatal(err)
	}
	cells := res.Cells["com-DB"]
	if len(cells) != len(FullyDynamicAlgos()) {
		t.Fatalf("cells = %d", len(cells))
	}
	for algo, r := range cells {
		if r.Truth <= 0 || math.IsNaN(r.ARE.Mean) {
			t.Fatalf("%v: bad result %+v", algo, r)
		}
	}
	if len(res.Table.Rows) == 0 {
		t.Fatal("no rendered rows")
	}
}

// TestMassiveStreamKeepsFinalCounts guards the scenario calibration: the
// massive-deletion stream must leave enough pattern instances at stream end
// for relative error to be meaningful (the property EXPERIMENTS.md relies
// on).
func TestMassiveStreamKeepsFinalCounts(t *testing.T) {
	for _, name := range []string{"cit-PT", "com-YT", "web-GL", "synthetic"} {
		d, err := DatasetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		st := StreamFor(d, MassiveDefault(), 1)
		tl := computeTruth(st, pattern.Triangle, 10)
		if tl.final < 1000 {
			t.Errorf("%s: final triangle count %v too small for relative metrics", name, tl.final)
		}
	}
}

func TestStreamForCaches(t *testing.T) {
	d := tinyDataset(t)
	a := StreamFor(d, LightDefault(), 3)
	b := StreamFor(d, LightDefault(), 3)
	if &a[0] != &b[0] {
		t.Fatal("stream cache miss")
	}
	if a.Validate() != -1 {
		t.Fatal("cached stream infeasible")
	}
}

var _ = stream.Stream{} // keep import for clarity of test types
