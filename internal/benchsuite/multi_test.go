package benchsuite

import "testing"

// TestMultiPatternIngestCost pins the multi-pattern layer's cost model: on
// the dense-community stream, one 3-pattern MultiCounter (multi3) must
// ingest at under 2.5x the single-pattern ns/event (core), while three
// separate counters (single3x) demonstrate the cost the multi-pattern layer
// removes — multi3 must beat them outright. Same process, same stream, same
// protocol, so the ratios are robust to machine speed. The bound was 2x
// when the hash-probe intersection made core slow; the sorted-adjacency
// rewrite cut core's ns/event ~2.3x while multi3's fixed per-pattern emit
// overhead shrank less (~1.9x absolute), so the expected ratio is now ~1.6
// bare and brushes 2.0 under the race detector's instrumentation — 2.5
// keeps the same real margin over both.
func TestMultiPatternIngestCost(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock ratio measurement")
	}
	// Load from a neighbouring test binary lands on whichever cell is
	// running, so the cells run in rounds of one trial each, the first cell
	// rotating, and the bounds hold on each cell's fastest round: the
	// minimum is the measurement least disturbed by that load.
	const rounds = 3
	cells := []string{"core/dense-community", "multi3/dense-community", "single3x/dense-community"}
	fastest := map[string]Result{}
	for r := 0; r < rounds; r++ {
		for k := range cells {
			name := cells[(r+k)%len(cells)]
			rep, err := Run(Config{Seed: 1, Trials: 1, Only: []string{name}})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Results) != 1 || rep.Results[0].Workload != name {
				t.Fatalf("Run(%s) measured %v", name, rep.Results)
			}
			if res, seen := fastest[name]; !seen || rep.Results[0].NsPerEvent < res.NsPerEvent {
				fastest[name] = rep.Results[0]
			}
		}
	}
	core, multi, singles := fastest[cells[0]], fastest[cells[1]], fastest[cells[2]]

	if ratio := multi.NsPerEvent / core.NsPerEvent; ratio >= 2.5 {
		t.Errorf("3-pattern ingest costs %.2fx the single-pattern path (%.0f vs %.0f ns/event, fastest of %d rounds), want < 2.5x",
			ratio, multi.NsPerEvent, core.NsPerEvent, rounds)
	}
	if multi.NsPerEvent >= singles.NsPerEvent {
		t.Errorf("multi3 (%.0f ns/event) is not cheaper than three separate counters (%.0f ns/event), fastest of %d rounds",
			multi.NsPerEvent, singles.NsPerEvent, rounds)
	}
	// The multi counter's primary pattern shares the single counter's exact
	// sampling trajectory, so their estimates — and MREs — must be identical.
	if multi.MREVsExact != core.MREVsExact {
		t.Errorf("multi3 primary MRE %v differs from core MRE %v: the shared-sample trajectory diverged",
			multi.MREVsExact, core.MREVsExact)
	}
}
