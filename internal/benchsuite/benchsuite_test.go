package benchsuite

import (
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/weights"
	"repro/internal/xrand"
)

// syntheticReport builds a minimal valid report for comparator tests.
func syntheticReport(workloads map[string]Result) *Report {
	rep := &Report{SchemaVersion: SchemaVersion, Suite: SuiteName, Seed: 1, Trials: 1}
	for name, r := range workloads {
		r.Workload = name
		rep.Results = append(rep.Results, r)
	}
	return rep
}

func TestCompareFlagsThroughputRegression(t *testing.T) {
	base := syntheticReport(map[string]Result{
		"pipeline/dense-community": {EventsPerSec: 100_000, AllocsPerEvent: 0.5, MREVsExact: 0.05},
	})

	// Exactly at the 10% boundary: not a regression (strictly more than 10%
	// worse trips the gate).
	okRep := syntheticReport(map[string]Result{
		"pipeline/dense-community": {EventsPerSec: 90_000, AllocsPerEvent: 0.5, MREVsExact: 0.05},
	})
	if regs := Compare(base, okRep, Tolerances{}); len(regs) != 0 {
		t.Fatalf("10%% drop within tolerance flagged: %v", regs)
	}

	// A synthetic 11% throughput drop must be flagged.
	badRep := syntheticReport(map[string]Result{
		"pipeline/dense-community": {EventsPerSec: 89_000, AllocsPerEvent: 0.5, MREVsExact: 0.05},
	})
	regs := Compare(base, badRep, Tolerances{})
	if len(regs) != 1 || regs[0].Metric != "events_per_sec" {
		t.Fatalf("expected one events_per_sec regression, got %v", regs)
	}
	if regs[0].Change > -0.10 {
		t.Fatalf("regression change = %v, want <= -0.10", regs[0].Change)
	}
}

func TestCompareFlagsAllocRegression(t *testing.T) {
	base := syntheticReport(map[string]Result{
		"core/wedge-heavy": {EventsPerSec: 100, AllocsPerEvent: 2.0, MREVsExact: 0.05},
	})
	bad := syntheticReport(map[string]Result{
		"core/wedge-heavy": {EventsPerSec: 100, AllocsPerEvent: 2.6, MREVsExact: 0.05},
	})
	regs := Compare(base, bad, Tolerances{})
	if len(regs) != 1 || regs[0].Metric != "allocs_per_event" {
		t.Fatalf("expected one allocs_per_event regression, got %v", regs)
	}
	// Near-zero baselines get the absolute floor: 0 -> 0.015 is noise, not a
	// regression, but 0 -> 0.2 (a per-batch allocation creeping back onto an
	// allocation-free path) is.
	zeroBase := syntheticReport(map[string]Result{
		"core/wedge-heavy": {EventsPerSec: 100, AllocsPerEvent: 0, MREVsExact: 0.05},
	})
	noisy := syntheticReport(map[string]Result{
		"core/wedge-heavy": {EventsPerSec: 100, AllocsPerEvent: 0.015, MREVsExact: 0.05},
	})
	if regs := Compare(zeroBase, noisy, Tolerances{}); len(regs) != 0 {
		t.Fatalf("sub-floor alloc rise flagged: %v", regs)
	}
	crept := syntheticReport(map[string]Result{
		"core/wedge-heavy": {EventsPerSec: 100, AllocsPerEvent: 0.2, MREVsExact: 0.05},
	})
	if regs := Compare(zeroBase, crept, Tolerances{}); len(regs) != 1 || regs[0].Metric != "allocs_per_event" {
		t.Fatalf("0 -> 0.2 allocs/event not flagged: %v", regs)
	}
}

func TestCompareFlagsMissingWorkload(t *testing.T) {
	base := syntheticReport(map[string]Result{
		"core/wedge-heavy":         {EventsPerSec: 100},
		"pipeline/dense-community": {EventsPerSec: 100},
	})
	next := syntheticReport(map[string]Result{
		"core/wedge-heavy": {EventsPerSec: 100},
		"core/extra":       {EventsPerSec: 1}, // additions are fine
	})
	regs := Compare(base, next, Tolerances{})
	if len(regs) != 1 || regs[0].Metric != "missing" || regs[0].Workload != "pipeline/dense-community" {
		t.Fatalf("expected one missing-workload regression, got %v", regs)
	}
}

func TestCompareMRETripwire(t *testing.T) {
	base := syntheticReport(map[string]Result{
		"core/wedge-heavy": {EventsPerSec: 100, MREVsExact: 0.05},
	})
	bad := syntheticReport(map[string]Result{
		"core/wedge-heavy": {EventsPerSec: 100, MREVsExact: 0.30},
	})
	regs := Compare(base, bad, Tolerances{})
	if len(regs) != 1 || regs[0].Metric != "mre_vs_exact" {
		t.Fatalf("expected one mre_vs_exact regression, got %v", regs)
	}
}

func TestReportRoundTripAndValidation(t *testing.T) {
	rep := syntheticReport(map[string]Result{"core/wedge-heavy": {EventsPerSec: 42, Events: 7}})
	rep.GoVersion, rep.GOOS, rep.GOARCH, rep.CPUs = "go1.24", "linux", "amd64", 8
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Results[0].EventsPerSec != 42 || got.Results[0].Events != 7 || got.CPUs != 8 {
		t.Fatalf("round trip lost data: %+v", got)
	}

	if _, err := DecodeReport([]byte(`{"suite":"wsd-ingest","schema_version":999,"results":[{}]}`)); err == nil {
		t.Fatal("future schema version accepted")
	}
	if _, err := DecodeReport([]byte(`{"suite":"other","schema_version":1,"results":[{}]}`)); err == nil {
		t.Fatal("foreign suite accepted")
	}
	if _, err := DecodeReport([]byte(`{"suite":"wsd-ingest","schema_version":1}`)); err == nil {
		t.Fatal("empty report accepted")
	}
	if _, err := DecodeReport([]byte(`not json`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// TestRunSmoke runs one real workload cell end to end and sanity-checks the
// measurement fields; a same-seed rerun must produce the identical estimate
// path (MRE equal), which is what makes reports comparable across commits.
func TestRunSmoke(t *testing.T) {
	cfg := Config{Seed: 1, Trials: 1, Only: []string{"core/wedge-heavy"}}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("want exactly the selected workload, got %d results", len(rep.Results))
	}
	r := rep.Results[0]
	if r.Workload != "core/wedge-heavy" || r.Ingest != "core" || r.Stream != "wedge-heavy" {
		t.Fatalf("workload naming broken: %+v", r)
	}
	if r.Events <= 0 || r.EventsPerSec <= 0 || r.NsPerEvent <= 0 || r.Exact <= 0 {
		t.Fatalf("implausible measurement: %+v", r)
	}
	if r.MREVsExact < 0 || r.MREVsExact > 1 {
		t.Fatalf("MRE out of range: %v", r.MREVsExact)
	}
	rep2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Results[0].MREVsExact != r.MREVsExact {
		t.Fatalf("same seed produced different estimates: MRE %v vs %v",
			rep2.Results[0].MREVsExact, r.MREVsExact)
	}

	if _, err := Run(Config{Seed: 1, Trials: 1, Only: []string{"no-such-workload"}}); err == nil {
		t.Fatal("unknown workload filter accepted")
	}
}

// requireEqualMREs runs the named cells at seed 1 and fails unless their
// MREs are bit-equal; it returns their results.
func requireEqualMREs(t *testing.T, trials int, cells ...string) []Result {
	t.Helper()
	rep, err := Run(Config{Seed: 1, Trials: trials, Only: cells})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(cells) {
		t.Fatalf("want the cells %v, got %d results", cells, len(rep.Results))
	}
	a := rep.Results[0]
	for _, b := range rep.Results[1:] {
		if a.MREVsExact != b.MREVsExact {
			t.Fatalf("%s MRE %v differs from %s MRE %v", a.Workload, a.MREVsExact, b.Workload, b.MREVsExact)
		}
	}
	return rep.Results
}

// TestTemporalCellMatchesCore: the WSD-H weight ignores the temporal
// features, so computing them must not move the sample. core-temporal's MRE
// equals core's bit for bit, which is what makes their ns/event difference
// the features' cost and nothing else.
func TestTemporalCellMatchesCore(t *testing.T) {
	requireEqualMREs(t, 2, "core/dense-community", "core-temporal/dense-community")
}

// TestPolicyCellAllocBudget pins the learned-policy ingest cell's allocation
// budget: evaluating the WSD-L policy on the hot path (state extraction plus
// a linear model per insertion) must stay allocation-free, so the cell's
// whole-stack figure is bounded by the same batching overhead the plain core
// cell pays. The cell measures 0.0167 allocs/event at Seed 1, Trials 1
// (identical across runs), so 0.03 leaves under 2x headroom: an allocation of
// even 0.02/event creeping onto the learned-weight path fails here. A
// regression means a policy swap silently puts the garbage collector back on
// the ingest path.
func TestPolicyCellAllocBudget(t *testing.T) {
	rep, err := Run(Config{Seed: 1, Trials: 1, Only: []string{"core-wsdl"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("want exactly the core-wsdl cell, got %d results", len(rep.Results))
	}
	r := rep.Results[0]
	const budget = 0.03
	if r.AllocsPerEvent > budget {
		t.Fatalf("core-wsdl allocates %.3f allocs/event, budget %.2f", r.AllocsPerEvent, budget)
	}
	if r.MREVsExact < 0 || r.MREVsExact > 1 {
		t.Fatalf("MRE out of range under the learned policy: %v", r.MREVsExact)
	}
}

// TestSubmitCellMatchesPipeline: the submit cell feeds newPipeline's counter
// the same events under the same seed as the pipeline cell, one envelope per
// event instead of one per batch, so the sample and the MRE are the same and
// their ns/event difference is what batching saves.
func TestSubmitCellMatchesPipeline(t *testing.T) {
	requireEqualMREs(t, 2, "pipeline/dense-community", "submit/dense-community")
}

// TestFleetCellsShareSample: the write-ahead log adds durability, not
// sampling, so cluster3 and cluster3-wal run the same sample and their MREs
// are bit-equal — both to each other and to an in-process ensemble of the
// counters the workers run (worker i seeded seed+i, which the facade's
// one-shard construction draws as xrand.NewSequence(seed+i, 0), over
// SplitBudget(m, 3)). The test pins runFleet's seed and budget wiring.
func TestFleetCellsShareSample(t *testing.T) {
	const seed = 1 // the trial-0 seed of requireEqualMREs's run
	got := requireEqualMREs(t, 1, "cluster3/dense-community", "cluster3-wal/dense-community")[0]
	sp := streams()[0]
	budgets := shard.SplitBudget(sp.m, 3)
	counters := make([]shard.Counter, len(budgets))
	for i := range counters {
		c, err := core.New(core.Config{
			M:            budgets[i],
			Pattern:      sp.kind,
			Weight:       weights.GPSDefault(),
			Rng:          xrand.NewSequence(seed+int64(i), 0),
			SkipTemporal: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		counters[i] = c
	}
	ens, err := shard.New(counters)
	if err != nil {
		t.Fatal(err)
	}
	if err := ens.SubmitBatch(sp.build(seed)); err != nil {
		t.Fatal(err)
	}
	if want := metrics.RelErr(ens.Close(), got.Exact); got.MREVsExact != want {
		t.Fatalf("fleet MRE %v, in-process ensemble of the workers' counters %v", got.MREVsExact, want)
	}
}
